package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/cql"
	"repro/internal/durable"
	"repro/internal/obs"
	"repro/internal/operators"
	"repro/internal/stats"
)

// CrowdQL query service: named sessions over the serving pool.
//
//	POST   /api/cql/session                          -> create a session
//	GET    /api/cql/sessions                         -> list sessions
//	DELETE /api/cql/session/{name}                   -> close (and persist) it
//	POST   /api/cql/session/{name}/prepare           -> store a named statement
//	POST   /api/cql/session/{name}/execute           -> run SQL/CQL, returns a query handle
//	GET    /api/cql/session/{name}/query/{qid}       -> poll a handle / fetch the next page
//	POST   /api/cql/session/{name}/query/{qid}/cancel-> cancel a running query
//
// Crowd questions issued by a session's queries do not run against
// simulated workers: the session's runner carries a RemoteSource that
// publishes each question as a task in the serving pool, where real
// workers pick it up through GET /api/task and answer through POST
// /api/answer — the same endpoints, budget, screening, leases, and
// durability as every other task. A crowd query is therefore
// asynchronous by nature; execute returns a handle immediately (after a
// short grace wait so machine statements look synchronous), and clients
// poll the handle for partial rows while answers arrive.
//
// The questions of one plan stage are published together, as a round, and
// collected by one waiter; a query's crowd latency is the slowest question
// of each stage, not their sum.
//
// Budget accounting uses the reservation protocol of the answer path:
// the gateway reserves redundancy-k units when it publishes a question
// and refunds one unit per arriving answer (which the answer path
// charges), so a completed question costs exactly k and a canceled one
// costs exactly the answers it received. Canceling a query closes every
// open task of its round, which releases their outstanding leases.

// CQLConfig configures the CrowdQL query service.
type CQLConfig struct {
	// Dir, when non-empty, persists each session's catalog under
	// Dir/<session-name>/ as the session closes (explicitly, by idle
	// sweep, or at server shutdown) and reloads it when a session of the
	// same name is created again.
	Dir string
	// IdleTTL closes sessions with no activity and no running query
	// (0 = only explicit close).
	IdleTTL time.Duration
	// PageSize is the default page size for query handles (default 100).
	PageSize int
	// Redundancy is votes per crowd question (default: the session
	// default, 3).
	Redundancy int
	// Seed seeds each session's RNG (plan sampling; crowd answers come
	// from the pool, not a simulation).
	Seed uint64
	// Oracle, when set, supplies the simulated ground truth planted on
	// published tasks for a given session (golden grading, experiments).
	Oracle func(session string) *cql.SimOracle
	// ExecuteGrace bounds how long POST execute waits for the query to
	// finish before returning a running handle (default 300ms). Machine
	// statements resolve well within it, so they look synchronous.
	ExecuteGrace time.Duration
}

// WithCQL mounts the CrowdQL query service on the server.
func WithCQL(cfg CQLConfig) Option {
	return func(s *Server) { s.cqlCfg = &cfg }
}

// CQLSessions exposes the session manager (nil unless WithCQL); tests
// and embedders reach the service layer directly through it.
func (s *Server) CQLSessions() *cql.SessionManager { return s.cqlMgr }

// cqlMetrics instruments the query service. Nil fields (metrics off)
// no-op.
type cqlMetrics struct {
	queriesDone     *obs.Counter
	queriesError    *obs.Counter
	queriesCanceled *obs.Counter
	querySeconds    *obs.Histogram
	pagesServed     *obs.Counter
	cancels         *obs.Counter
}

func (m *cqlMetrics) queryDone(status cql.QueryStatus, d time.Duration) {
	switch status {
	case cql.QueryError:
		m.queriesError.Inc()
	case cql.QueryCanceled:
		m.queriesCanceled.Inc()
	default:
		m.queriesDone.Inc()
	}
	m.querySeconds.Observe(d.Seconds())
}

// cqlJournal adapts the durable store to cql.SessionJournal: every
// session-lifecycle transition becomes a WAL event, and a refused append
// fails the transition (the handlers answer 500).
type cqlJournal struct{ store *durable.Store }

func (j cqlJournal) SessionCreated(name string) error { return j.store.CQLSessionCreated(name) }
func (j cqlJournal) SessionClosed(name string) error  { return j.store.CQLSessionClosed(name) }
func (j cqlJournal) StatementPrepared(session, name, src string) error {
	return j.store.CQLPrepared(session, name, src)
}
func (j cqlJournal) QueryStarted(session, qid, src string) error {
	return j.store.CQLQueryStarted(session, qid, src)
}
func (j cqlJournal) QueryFinished(session, qid string, status cql.QueryStatus) error {
	return j.store.CQLQueryFinished(session, qid, string(status))
}

// cqlError answers a failed session operation: 500 when the journal
// refused it, otherwise the caller's mistake with status code.
func cqlError(w http.ResponseWriter, err error, code int) {
	if errors.Is(err, core.ErrNotJournaled) {
		code = http.StatusInternalServerError
	}
	httpError(w, code, err.Error())
}

// initCQL builds the gateway and session manager. Called by New once the
// pool wrapper exists, before observability wiring (which registers the
// service's gauges).
func (s *Server) initCQL() error {
	if s.cqlCfg == nil {
		return nil
	}
	cfg := s.cqlCfg
	if cfg.ExecuteGrace <= 0 {
		cfg.ExecuteGrace = 300 * time.Millisecond
	}
	s.cqlGw = &cqlGateway{srv: s, waiters: make(map[core.TaskID]chan struct{})}
	scfg := cql.ServiceConfig{
		Factory:     s.newCQLSession,
		IdleTTL:     cfg.IdleTTL,
		PageSize:    cfg.PageSize,
		OnClose:     s.saveCQLCatalog,
		OnQueryDone: func(st cql.QueryStatus, d time.Duration) { s.cqlM.queryDone(st, d) },
		Tracer:      s.traceCol,
	}
	if s.store != nil {
		// Durability on: journal session lifecycle into the WAL, and save
		// the catalog after every mutating statement (not just on close) so
		// the catalog a crash recovers onto already holds every executed
		// statement's effects. Without a store, neither hook is set and the
		// service runs the exact PR 9 close-time persistence path.
		scfg.Journal = cqlJournal{store: s.store}
		scfg.OnMutate = s.saveCQLCatalog
	}
	mgr, err := cql.NewSessionManager(scfg)
	if err != nil {
		return err
	}
	s.cqlMgr = mgr
	return nil
}

// newCQLSession is the session factory: a fresh catalog (reloaded from
// disk when this session name was persisted before) and a runner whose
// crowd questions route to the serving pool through the gateway.
func (s *Server) newCQLSession(name string) (*cql.Session, error) {
	cat := cql.NewCatalog()
	if s.cqlCfg.Dir != "" {
		dir := filepath.Join(s.cqlCfg.Dir, name)
		if _, err := os.Stat(dir); err == nil {
			loaded, err := cql.LoadCatalog(dir)
			if err != nil {
				return nil, fmt.Errorf("cql session %q: %w", name, err)
			}
			cat = loaded
		}
	}
	rng := stats.NewRNG(s.cqlCfg.Seed + 1)
	runner := operators.NewRunner(nil, nil, rng)
	runner.Remote = s.cqlGw
	sess := cql.NewSession(cat, runner, rng.Split())
	if s.cqlCfg.Redundancy > 0 {
		sess.Redundancy = s.cqlCfg.Redundancy
	}
	if s.cqlCfg.Oracle != nil {
		sess.Oracle = s.cqlCfg.Oracle(name)
	}
	return sess, nil
}

// saveCQLCatalog is the session OnClose hook: persist the catalog so the
// session's tables survive a server restart.
func (s *Server) saveCQLCatalog(name string, sess *cql.Session) {
	if s.cqlCfg.Dir == "" {
		return
	}
	dir := filepath.Join(s.cqlCfg.Dir, name)
	err := os.MkdirAll(dir, 0o755)
	if err == nil {
		err = cql.SaveCatalog(sess.Catalog, dir)
	}
	if err != nil && s.reqLog != nil {
		s.reqLog.Error("cql catalog save failed", "session", name, "error", err)
	}
}

// wireCQLObservability registers the query-service metrics (called from
// wireObservability when metrics are on and the service is mounted).
func (s *Server) wireCQLObservability() {
	reg := s.metricsReg
	st := func(v string) obs.Label { return obs.L("status", v) }
	s.cqlM = cqlMetrics{
		queriesDone:     reg.Counter("crowdkit_cql_queries_total", st("done")),
		queriesError:    reg.Counter("crowdkit_cql_queries_total", st("error")),
		queriesCanceled: reg.Counter("crowdkit_cql_queries_total", st("canceled")),
		querySeconds:    reg.Histogram("crowdkit_cql_query_seconds", obs.DefLatencyBuckets),
		pagesServed:     reg.Counter("crowdkit_cql_pages_served_total"),
		cancels:         reg.Counter("crowdkit_cql_cancels_total"),
	}
	reg.GaugeFunc("crowdkit_cql_sessions_active", func() float64 {
		return float64(s.cqlMgr.SessionCount())
	})
	// Recovery counters are plain value counters incremented by the boot
	// recovery pass (which runs before metrics wiring): registering them
	// here just exposes whatever that pass already counted.
	reg.RegisterCounter("crowdkit_cql_recovered_sessions_total", &s.cqlRecSessions)
	reg.RegisterCounter("crowdkit_cql_recovered_queries_total", &s.cqlRecQueries)
	reg.RegisterCounter("crowdkit_cql_recovered_questions_total", &s.cqlRecQuestions)
	reg.RegisterCounter("crowdkit_cql_recovered_refund_units_total", &s.cqlRecRefund)
}

// mountCQL adds the query-service routes (called from New when WithCQL
// was given).
func (s *Server) mountCQL() {
	s.mux.HandleFunc("POST /api/cql/session",
		s.instrument("/api/cql/session", s.handleCQLCreate))
	s.mux.HandleFunc("GET /api/cql/sessions",
		s.instrument("/api/cql/sessions", s.handleCQLList))
	s.mux.HandleFunc("DELETE /api/cql/session/{name}",
		s.instrument("/api/cql/session.close", s.handleCQLClose))
	s.mux.HandleFunc("POST /api/cql/session/{name}/prepare",
		s.instrument("/api/cql/prepare", s.handleCQLPrepare))
	s.mux.HandleFunc("POST /api/cql/session/{name}/execute",
		s.instrument("/api/cql/execute", s.handleCQLExecute))
	s.mux.HandleFunc("GET /api/cql/session/{name}/query/{qid}",
		s.instrument("/api/cql/query", s.handleCQLQuery))
	s.mux.HandleFunc("POST /api/cql/session/{name}/query/{qid}/cancel",
		s.instrument("/api/cql/cancel", s.handleCQLCancel))
}

// cqlGateway publishes a session's crowd questions as serving-pool tasks,
// a round at a time, and waits for the pool's workers to answer them. It
// implements operators.RemoteSource.
type cqlGateway struct {
	srv *Server

	// waiters maps every open question to its round's wake-up channel: all
	// task IDs of one round share one channel, so the answer path's notify
	// stays a single map lookup however large the round.
	mu      sync.Mutex
	waiters map[core.TaskID]chan struct{}
}

// notify wakes the gateway round waiting on a task, if any. Called by the
// answer paths once an answer is appended and applied; spurious wakes are
// harmless (the collector re-reads the pool).
func (g *cqlGateway) notify(id core.TaskID) {
	g.mu.Lock()
	ch := g.waiters[id]
	g.mu.Unlock()
	if ch != nil {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
}

// notifyCQL wakes the gateway round waiting on a task after an answer was
// journaled and applied (no-op when the query service is not mounted).
// Called from the single and batch answer paths.
func (s *Server) notifyCQL(id core.TaskID) {
	if s.cqlGw != nil {
		s.cqlGw.notify(id)
	}
}

// cqlAnswerPoll is the fallback poll interval of a waiting round; the
// notify hook makes the common case event-driven.
const cqlAnswerPoll = 50 * time.Millisecond

// errCQLBudget fails a statement whose round the budget cannot cover.
var errCQLBudget = errors.New("cql: budget exhausted")

// openQuestion is the collector's ledger for one published question.
type openQuestion struct {
	id     core.TaskID
	span   *obs.Span // nil unless the round is traced
	seen   int       // answers whose share of the reservation was released (≤ k)
	leases int       // lease count last stamped on the span
	done   bool      // closed: k answers landed
}

// Ask implements operators.RemoteSource. The round is published whole —
// reserve k budget units per question, add the tasks, journal the
// reservations, sync once per touched WAL segment — and then this one
// collector waits on all of it: each arriving answer releases one reserved
// unit (the answer path charges it), and a question is closed, journaled
// and handed to resolved the moment its k-th answer lands, so a completed
// question costs exactly k. Questions completing in the same wake-up close
// under one sync. On cancellation every still-open question is closed —
// dropping its outstanding leases — and the unconsumed remainder of its
// reservation is refunded, so a canceled question's net spend is exactly
// the answers it received.
//
// A budget that covers only the first m questions publishes exactly those
// m, resolves them, and then fails the round: the spend and the error are
// those of asking the questions one at a time.
func (g *cqlGateway) Ask(ctx context.Context, round []operators.Question, k int, resolved func(int, []core.Answer)) error {
	s := g.srv
	open, ids, tailErr := g.publish(round, k)
	if len(open) == 0 {
		return tailErr
	}
	wake := make(chan struct{}, 1)
	g.mu.Lock()
	for _, id := range ids {
		g.waiters[id] = wake
	}
	g.mu.Unlock()
	defer func() {
		g.mu.Lock()
		for _, id := range ids {
			delete(g.waiters, id)
		}
		g.mu.Unlock()
	}()

	ticker := time.NewTicker(cqlAnswerPoll)
	defer ticker.Stop()
	remaining := len(open)
	var closed []int          // indices into open closed by the current wake-up
	var touched []core.TaskID // their task IDs, for the one sync
	for {
		closed, touched = closed[:0], touched[:0]
		for i := range open {
			q := &open[i]
			if q.done {
				continue
			}
			done, err := g.collect(q, k)
			if err != nil {
				// The journal is gone: nothing can be closed or refunded in
				// a way a restart would remember. Memory stays equal to the
				// log — the round's questions open, their reservations held
				// — and the next boot's recovery pass reconciles them.
				return err
			}
			if done {
				closed, touched = append(closed, i), append(touched, q.id)
			}
		}
		if len(closed) > 0 {
			if s.store != nil {
				_ = s.store.SyncTasks(touched)
			}
			for _, i := range closed {
				resolved(i, append([]core.Answer(nil), s.cpool.Answers(open[i].id)[:k]...))
			}
			if remaining -= len(closed); remaining == 0 {
				return tailErr
			}
		}
		select {
		case <-ctx.Done():
			// Stop the round: close every open task (rejecting further
			// answers and dropping its leases) and hand back the
			// reservations never consumed.
			for i := range open {
				q := &open[i]
				if q.done {
					continue
				}
				if s.cpool.Close(q.id) != nil {
					// Not closed in the log, so not refunded either.
					continue
				}
				s.budget.Refund(int64(k - q.seen))
				if s.store != nil {
					_ = s.store.CQLQuestionClosed(q.id, int64(k-q.seen))
				}
				q.span.AddEvent("close", obs.Int("answers", int64(q.seen)), obs.Str("reason", "canceled"))
			}
			if s.store != nil {
				_ = s.store.SyncTasks(ids)
			}
			return ctx.Err()
		case <-wake:
		case <-ticker.C:
		}
	}
}

// publish opens the round: it reserves k units per question in round order
// until the budget refuses, adds the affordable prefix to the pool —
// journaling each reservation right behind its task-added record, on the
// task's own WAL segment — and syncs the touched segments once. From here
// on the durable spend tracks the live budget through every refund; a
// crash before a question closes leaves a published-without-closed pair,
// which recovery reconciles by closing the task and refunding the
// remainder. It returns the published questions with their task IDs, and
// the error that cut the round short, if any.
func (g *cqlGateway) publish(round []operators.Question, k int) ([]openQuestion, []core.TaskID, error) {
	s := g.srv
	var err error
	m := 0
	for m < len(round) && s.budget.TryCharge(int64(k)) {
		m++
	}
	if m < len(round) {
		err = errCQLBudget
	}
	open := make([]openQuestion, 0, m)
	ids := make([]core.TaskID, 0, m)
	for i := 0; i < m; i++ {
		id, addErr := s.cpool.Add(round[i].Task)
		if addErr != nil {
			s.budget.Refund(int64(k * (m - i)))
			err = addErr
			break
		}
		if s.store != nil {
			_ = s.store.CQLQuestionPublished(id, int64(k))
		}
		sp := round[i].Span
		if sp.Recording() {
			sp.SetAttr(obs.Int("task", int64(id)), obs.Int("shard", int64(s.cpool.ShardFor(id))))
			sp.AddEvent("publish", obs.Int("task", int64(id)), obs.Int("redundancy", int64(k)))
		}
		open = append(open, openQuestion{id: id, span: sp})
		ids = append(ids, id)
	}
	if s.store != nil {
		_ = s.store.SyncTasks(ids)
	}
	return open, ids, err
}

// collect folds the pool's current state of one open question into its
// ledger and reports whether it just closed. The pool only ever shows
// answers the journal holds, so a submission that was refused (500) can
// neither release a reserved unit nor close a question. The error is the
// journal's refusal of the close.
func (g *cqlGateway) collect(q *openQuestion, k int) (bool, error) {
	s := g.srv
	if q.span.Recording() {
		if l := s.cpool.LeaseCount(q.id); l != q.leases {
			q.span.AddEvent("lease", obs.Int("active", int64(l)))
			q.leases = l
		}
	}
	n := s.cpool.AnswerCount(q.id)
	if n > k {
		// Answers beyond k (racing workers) keep their own charge.
		n = k
	}
	if n > q.seen {
		// Each arriving answer was charged by the answer path; release the
		// matching part of the reservation so in-flight spend stays exactly
		// k.
		s.budget.Refund(int64(n - q.seen))
		if s.store != nil {
			_ = s.store.CQLQuestionRefunded(q.id, int64(n-q.seen))
		}
		if q.span.Recording() {
			for i := q.seen + 1; i <= n; i++ {
				q.span.AddEvent("answer", obs.Int("n", int64(i)))
			}
		}
		q.seen = n
	}
	if q.seen < k {
		return false, nil
	}
	if err := s.cpool.Close(q.id); err != nil {
		return false, err
	}
	if s.store != nil {
		// Fully consumed reservation: the closed event retires the
		// question's durable ledger with a zero remainder.
		_ = s.store.CQLQuestionClosed(q.id, 0)
	}
	q.span.AddEvent("close", obs.Int("answers", int64(q.seen)))
	q.done = true
	return true, nil
}

// --- HTTP handlers ---

// CQLSessionDTO names a session on the wire.
type CQLSessionDTO struct {
	Session string `json:"session"`
	Status  string `json:"status,omitempty"`
}

// CQLSessionListDTO is the GET /api/cql/sessions response.
type CQLSessionListDTO struct {
	Sessions []string `json:"sessions"`
}

// CQLExecuteDTO is the execute/prepare request body. Execute takes
// either Src (SQL/CQL text, possibly a multi-statement script) or
// Prepared (the name of a prepared statement); prepare takes Name + Src.
type CQLExecuteDTO struct {
	Name     string `json:"name,omitempty"`
	Src      string `json:"src,omitempty"`
	Prepared string `json:"prepared,omitempty"`
}

// maxCQLBody bounds CQL request bodies; statements are small.
const maxCQLBody = 1 << 20

func decodeCQLBody(w http.ResponseWriter, r *http.Request, dto any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, maxCQLBody)
	if err := json.NewDecoder(r.Body).Decode(dto); err != nil {
		httpError(w, http.StatusBadRequest, "invalid JSON: "+err.Error())
		return false
	}
	return true
}

// cqlSession resolves the {name} path segment to a live session.
func (s *Server) cqlSession(w http.ResponseWriter, r *http.Request) *cql.ManagedSession {
	name := r.PathValue("name")
	ms, ok := s.cqlMgr.Get(name)
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Sprintf("unknown session %q", name))
		return nil
	}
	return ms
}

func (s *Server) handleCQLCreate(w http.ResponseWriter, r *http.Request) {
	var dto CQLSessionDTO
	if !decodeCQLBody(w, r, &dto) {
		return
	}
	ms, err := s.cqlMgr.Create(dto.Session)
	if err != nil {
		cqlError(w, err, http.StatusBadRequest)
		return
	}
	writeJSON(w, CQLSessionDTO{Session: ms.Name(), Status: "created"})
}

func (s *Server) handleCQLList(w http.ResponseWriter, r *http.Request) {
	names := s.cqlMgr.SessionNames()
	if names == nil {
		names = []string{}
	}
	writeJSON(w, CQLSessionListDTO{Sessions: names})
}

func (s *Server) handleCQLClose(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if err := s.cqlMgr.CloseSession(name); err != nil {
		cqlError(w, err, http.StatusNotFound)
		return
	}
	writeJSON(w, CQLSessionDTO{Session: name, Status: "closed"})
}

func (s *Server) handleCQLPrepare(w http.ResponseWriter, r *http.Request) {
	ms := s.cqlSession(w, r)
	if ms == nil {
		return
	}
	var dto CQLExecuteDTO
	if !decodeCQLBody(w, r, &dto) {
		return
	}
	if err := ms.Prepare(dto.Name, dto.Src); err != nil {
		cqlError(w, err, http.StatusBadRequest)
		return
	}
	writeJSON(w, CQLSessionDTO{Session: ms.Name(), Status: "prepared"})
}

func (s *Server) handleCQLExecute(w http.ResponseWriter, r *http.Request) {
	ms := s.cqlSession(w, r)
	if ms == nil {
		return
	}
	var dto CQLExecuteDTO
	if !decodeCQLBody(w, r, &dto) {
		return
	}
	var (
		q   *cql.Query
		err error
	)
	switch {
	case dto.Prepared != "":
		q, err = ms.ExecutePrepared(dto.Prepared)
	case dto.Src != "":
		q, err = ms.Execute(dto.Src)
	default:
		httpError(w, http.StatusBadRequest, "need src or prepared")
		return
	}
	if err != nil {
		cqlError(w, err, http.StatusBadRequest)
		return
	}
	// Grace wait: machine statements finish in microseconds, so clients
	// of non-crowd queries see a completed first page; crowd queries
	// return a running handle to poll.
	q.Wait(s.cqlCfg.ExecuteGrace)
	s.writeCQLPage(w, q, "", 0)
}

func (s *Server) handleCQLQuery(w http.ResponseWriter, r *http.Request) {
	ms := s.cqlSession(w, r)
	if ms == nil {
		return
	}
	qid := r.PathValue("qid")
	q, ok := ms.Query(qid)
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Sprintf("unknown query %q", qid))
		return
	}
	limit := 0
	if v := r.URL.Query().Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			httpError(w, http.StatusBadRequest, "bad limit")
			return
		}
		limit = n
	}
	s.writeCQLPage(w, q, r.URL.Query().Get("page_token"), limit)
}

func (s *Server) writeCQLPage(w http.ResponseWriter, q *cql.Query, token string, limit int) {
	page, err := q.Page(token, limit)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	s.cqlM.pagesServed.Inc()
	writeJSON(w, page)
}

// cqlCancelWait bounds how long the cancel endpoint waits for the
// canceled query to unwind. Unwinding is what releases the question's
// leases and refunds its budget, so the ack should normally mean "the
// pool is clean again"; a handler stuck past the bound acks with status
// still running and the unwind completes asynchronously.
const cqlCancelWait = 5 * time.Second

func (s *Server) handleCQLCancel(w http.ResponseWriter, r *http.Request) {
	ms := s.cqlSession(w, r)
	if ms == nil {
		return
	}
	qid := r.PathValue("qid")
	// One lookup resolves existence and cancels: a handle pruned by the
	// retention cap between two separate calls could otherwise 404 after
	// its cancel already took effect.
	q, ok := ms.CancelQuery(qid)
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Sprintf("unknown query %q", qid))
		return
	}
	s.cqlM.cancels.Inc()
	q.Wait(cqlCancelWait)
	writeJSON(w, struct {
		Query  string          `json:"query_id"`
		Status cql.QueryStatus `json:"status"`
	}{Query: qid, Status: q.Status()})
}
