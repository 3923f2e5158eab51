// Package server exposes a crowdkit task pool as an HTTP microtask
// platform — the AMT-like service layer of the system: workers poll for
// assignments, submit answers, and the requester reads aggregated
// results. The API is deliberately small and JSON-only:
//
//	GET  /api/task?worker=ID   -> 200 {task} | 204 (nothing eligible)
//	POST /api/answer           -> 200 {recorded} | 4xx
//	GET  /api/stats            -> pool statistics
//	GET  /api/results?method=mv|onecoin|ds|glad -> inferred labels
//	GET  /healthz              -> 200 {"status":"ok"} liveness probe
//
// Concurrency model: there is no global server lock. The pool is a
// core.ShardedPool (task-hash shards, each a plain core.Pool behind its
// own RWMutex: parallel reads/assignments, exclusive writes per shard),
// the budget is atomic, and the worker screen locks internally, so
// handlers run in parallel across as many goroutines as net/http spawns.
// Answer accounting uses a reservation protocol: the handler reserves one
// budget unit with TryCharge, records the answer, and refunds the unit if
// the pool rejects the submission — rejected answers never consume
// budget. /api/results memoizes inference per (method, option count)
// keyed by the pool's mutation version, so repeated polls between new
// answers skip EM entirely.
//
// Seeding: New's pool argument only seeds the served pool. Its tasks are
// added to the server's own shards through ShardedPool.Add (and so
// journaled, with durability on); a seed that already holds answers,
// leases or closed tasks is refused. Read served state through the server,
// never through the seed.
//
// Durability (WithDurability, see durable.go): the served pool is then the
// store's, and every mutation of it — answers included — is validated,
// appended to the write-ahead log and only then applied, under the owning
// shard's lock. An answer is acknowledged after its record's fsync wait;
// one the log refused was never applied, so there is nothing to undo.
//
// Fault tolerance: with WithLeaseTTL set, every assignment from /api/task
// carries a lease. A submission consumes the lease; a worker that vanishes
// forfeits it after the TTL, and the slot is reclaimed (lazily on the next
// assignment, and by a background reaper goroutine) so assigners re-issue
// the task. Without leases an abandoned assignment is simply never counted
// — the legacy behavior — so lease-free servers behave exactly as before.
//
// Results serving is incremental under continuous ingest (see results.go):
// cache misses seed EM from the previous converged state, grow the cached
// dense dataset from the shards' answer-append logs instead of
// re-extracting the pool (groups with no new answers skip inference), and
// concurrent misses for the same (method, k, version) collapse onto a
// single computation. Every response carries X-Results-Version, the pool
// version it was computed at. Labels equal a cold inference over the same
// answers; confidences agree with it within the EM tolerance (README,
// /api/results).
//
// Observability (all opt-in, see metrics.go): WithMetrics installs
// per-endpoint request/latency instrumentation, budget/pool/lease gauges,
// EM convergence telemetry, and a /metrics exposition endpoint;
// WithRequestLog adds structured per-request logging with trace IDs;
// WithPprof mounts net/http/pprof; WithTracing installs the span flight
// recorder (see trace.go) — request, shard, WAL, EM, and CQL spans
// retrievable by the echoed X-Trace-Id via /api/trace/{id}. A server
// built without these options runs the exact pre-observability handler
// chain.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/cql"
	"repro/internal/durable"
	"repro/internal/obs"
)

// Server is an http.Handler exposing one crowdsourcing pool.
type Server struct {
	cpool    *core.ShardedPool
	shards   int
	assigner core.Assigner
	budget   *core.Budget
	screen   *core.WorkerScreen
	mux      *http.ServeMux

	// leaseTTL > 0 enables assignment leases; reaperEvery is the sweep
	// interval of the background reaper (defaults to leaseTTL/4).
	leaseTTL    time.Duration
	reaperEvery time.Duration
	expired     obs.Counter // leases reclaimed so far; the single source for /api/stats and /metrics
	stopReaper  chan struct{}
	closeOnce   sync.Once

	// Incremental results serving (see results.go and memo.go).
	memo    resultsMemo
	groupMu sync.Mutex
	groups  *groupSnap
	resM    resultsMetrics

	// Observability (nil/false = off; see metrics.go). traceCol is the
	// span flight recorder (nil = tracing off; see trace.go).
	metricsReg *obs.Registry
	pprofOn    bool
	reqLog     *slog.Logger
	obsv       *serverObs
	traceCol   *obs.Collector

	// store, when set, owns cpool, journals its every mutation and gates
	// answer acks on durability (nil = the pure in-memory server; see
	// durable.go).
	store *durable.Store

	// CrowdQL query service (nil unless WithCQL; see cql.go).
	cqlCfg *CQLConfig
	cqlMgr *cql.SessionManager
	cqlGw  *cqlGateway
	cqlM   cqlMetrics

	// CQL crash-recovery accounting (see cql_recovery.go): sessions and
	// query handles restored from the journal, orphaned crowd questions
	// reconciled, and budget units refunded doing so.
	cqlRecSessions  obs.Counter
	cqlRecQueries   obs.Counter
	cqlRecQuestions obs.Counter
	cqlRecRefund    obs.Counter
}

// Option configures optional server behavior.
type Option func(*Server)

// WithLeaseTTL enables assignment leases: every task handed out by
// /api/task must be answered within ttl or the slot is reclaimed and
// re-issued. ttl <= 0 leaves leases disabled.
func WithLeaseTTL(ttl time.Duration) Option {
	return func(s *Server) { s.leaseTTL = ttl }
}

// WithReaperInterval overrides how often the background reaper sweeps
// expired leases (default: leaseTTL/4, at least 10ms). Only meaningful
// together with WithLeaseTTL.
func WithReaperInterval(d time.Duration) Option {
	return func(s *Server) { s.reaperEvery = d }
}

// WithShards partitions the serving pool into n task-hash shards, each
// with its own lock, version counter, and lease heap, so answer recording
// and assignment scale across cores instead of serializing on one RWMutex.
// n <= 1 (the default) runs one shard. With durability enabled the shard
// count is the store's segment count (durable.Options.Segments); New
// refuses a WithShards that disagrees with it.
func WithShards(n int) Option {
	return func(s *Server) { s.shards = n }
}

// Shards returns the number of pool shards the server runs.
func (s *Server) Shards() int { return s.cpool.NumShards() }

// New wires a server around pool. assigner must not be nil; budget nil
// means unlimited; screen nil disables golden-task elimination. pool seeds
// the served pool with its tasks (see the package comment); it must hold
// no answers, leases or closed tasks. With WithDurability the server
// serves the store's pool, and pool may be nil; see WithDurability.
//
// When leases are enabled (WithLeaseTTL) a background reaper goroutine is
// started; call Close to stop it.
func New(pool *core.Pool, assigner core.Assigner, budget *core.Budget, screen *core.WorkerScreen, opts ...Option) (*Server, error) {
	if assigner == nil {
		return nil, fmt.Errorf("server: pool and assigner are required")
	}
	if budget == nil {
		budget = core.Unlimited()
	}
	s := &Server{
		assigner: assigner,
		budget:   budget,
		screen:   screen,
	}
	for _, opt := range opts {
		opt(s)
	}
	// The pool is settled after the options so WithShards and
	// WithDurability are known.
	if s.store != nil {
		if err := s.adoptStore(); err != nil {
			return nil, err
		}
	} else if pool == nil {
		return nil, fmt.Errorf("server: pool and assigner are required")
	} else {
		parts := make([]*core.Pool, max(s.shards, 1))
		for i := range parts {
			parts[i] = core.NewPool()
		}
		s.cpool = core.ShardedFrom(parts, nil)
	}
	if err := s.seed(pool); err != nil {
		return nil, err
	}
	if err := s.initCQL(); err != nil {
		return nil, err
	}
	// With durability on, reconcile CQL state the journal recovered before
	// any traffic lands: close orphaned crowd questions (refunding their
	// unconsumed reservations) and reopen the sessions that were live at
	// crash time. No-op without a store or recovered CQL events.
	s.recoverCQL()
	s.wireObservability()
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("GET /api/task", s.instrument("/api/task", s.handleTask))
	s.mux.HandleFunc("POST /api/answer", s.instrument("/api/answer", s.handleAnswer))
	s.mux.HandleFunc("POST /api/answers", s.instrument("/api/answers", s.handleAnswerBatch))
	s.mux.HandleFunc("GET /api/stats", s.instrument("/api/stats", s.handleStats))
	s.mux.HandleFunc("GET /api/results", s.instrument("/api/results", s.handleResults))
	s.mux.HandleFunc("GET /healthz", s.instrument("/healthz", s.handleHealthz))
	if s.cqlMgr != nil {
		s.mountCQL()
	}
	if s.traceCol != nil {
		s.mountTrace()
	}
	s.mountDebug()
	if s.leaseTTL > 0 {
		if s.reaperEvery <= 0 {
			s.reaperEvery = s.leaseTTL / 4
		}
		if s.reaperEvery < 10*time.Millisecond {
			s.reaperEvery = 10 * time.Millisecond
		}
		s.stopReaper = make(chan struct{})
		go s.reap()
	}
	return s, nil
}

// seed adds the tasks of New's pool argument to the served pool through
// Add, in the seed's order, so they keep their IDs and — with a store —
// are journaled. A seed carries tasks only: answers, leases and closes
// have no journal record to ride in on, so a seed holding any is refused,
// as is a second task set on top of tasks the store recovered.
func (s *Server) seed(pool *core.Pool) error {
	if pool == nil || pool.Len() == 0 {
		return nil
	}
	if pool.TotalAnswers() > 0 || pool.ActiveLeases() > 0 || pool.OpenCount() < pool.Len() {
		return fmt.Errorf("server: a seed pool holds tasks only, not answers, leases or closed tasks")
	}
	if n := s.cpool.Len(); n > 0 {
		return fmt.Errorf("server: the store already holds %d tasks; it cannot be seeded with %d more", n, pool.Len())
	}
	for _, id := range pool.TaskIDs() {
		if _, err := s.cpool.Add(pool.Task(id)); err != nil {
			return fmt.Errorf("server: seeding task %d: %w", id, err)
		}
	}
	return nil
}

// Close shuts down the CrowdQL session manager (if mounted — canceling
// running queries and persisting session catalogs), stops the background
// reaper (if any) and, when durability is on, flushes and snapshots the
// store (see durable.Store.Close). It is safe to call more than once and
// on servers without leases or durability.
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		if s.cqlMgr != nil {
			// First: closing sessions cancels their queries (releasing pool
			// leases and budget) and persists their catalogs while the rest
			// of the server is still up.
			s.cqlMgr.Close()
		}
		if s.stopReaper != nil {
			close(s.stopReaper)
		}
		if s.store != nil {
			_ = s.store.Close()
		}
	})
}

// reap periodically sweeps expired leases so reclamation does not depend
// on traffic: even with no /api/task polls in flight, abandoned slots
// return to the pool within one reaper interval of their deadline.
func (s *Server) reap() {
	t := time.NewTicker(s.reaperEvery)
	defer t.Stop()
	for {
		select {
		case <-s.stopReaper:
			return
		case <-t.C:
			s.reapSweep()
		}
	}
}

// reapSweep is one attributable reaper tick: with tracing on, the sweep
// runs under its own root span and trace ID, so a slow or busy sweep
// shows up in /api/traces (endpoint bg.lease-reaper) and its log line
// can be joined by trace ID. Idle ticks discard the span — a reaper
// firing every few milliseconds must not flood the kept ring.
func (s *Server) reapSweep() {
	if s.traceCol == nil {
		s.expireLeases()
		return
	}
	ctx := obs.WithCollector(context.Background(), s.traceCol)
	ctx, sp := obs.StartSpan(ctx, "bg.lease-reaper")
	exp, err := s.cpool.ExpireLeases(time.Now())
	if len(exp) == 0 && err == nil {
		sp.Discard()
		sp.End()
		return
	}
	s.expired.Add(int64(len(exp)))
	sp.SetAttr(obs.Int("expired", int64(len(exp))))
	sp.SetError(err)
	sp.End()
	if s.reqLog != nil {
		s.reqLog.LogAttrs(ctx, slog.LevelInfo, "lease sweep",
			slog.String("trace", sp.TraceID),
			slog.Int("expired", len(exp)))
	}
}

// expireLeases sweeps expired leases now and accounts them. A sweep the
// journal refused reclaimed nothing on that shard and is retried by the
// next one; the store's sticky error reaches clients through the
// assignment and answer paths.
func (s *Server) expireLeases() {
	exp, _ := s.cpool.ExpireLeases(time.Now())
	s.expired.Add(int64(len(exp)))
}

// ExpiredLeases returns how many leases the server has reclaimed.
func (s *Server) ExpiredLeases() int64 { return s.expired.Value() }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// HTTPServer wraps handler in an *http.Server with read/write/idle
// deadlines derived from timeout (default 30s when non-positive), so a
// stalled or malicious client cannot pin a handler goroutine forever.
// Callers run it with ListenAndServe or Serve as usual.
func HTTPServer(addr string, handler http.Handler, timeout time.Duration) *http.Server {
	if timeout <= 0 {
		timeout = 30 * time.Second
	}
	return &http.Server{
		Addr:              addr,
		Handler:           handler,
		ReadHeaderTimeout: timeout,
		ReadTimeout:       timeout,
		WriteTimeout:      timeout,
		IdleTimeout:       4 * timeout,
	}
}

// TaskDTO is the wire form of an assignment. Ground truth never leaves
// the server.
type TaskDTO struct {
	ID       core.TaskID `json:"id"`
	Kind     string      `json:"kind"`
	Question string      `json:"question"`
	Options  []string    `json:"options,omitempty"`
}

// AnswerDTO is the wire form of a submission.
type AnswerDTO struct {
	Task   core.TaskID `json:"task"`
	Worker string      `json:"worker"`
	Option int         `json:"option"`
	Text   string      `json:"text,omitempty"`
	Score  float64     `json:"score,omitempty"`
}

// StatsDTO summarizes pool progress.
type StatsDTO struct {
	Tasks        int   `json:"tasks"`
	OpenTasks    int   `json:"open_tasks"`
	TotalAnswers int   `json:"total_answers"`
	Workers      int   `json:"workers"`
	BudgetSpent  int64 `json:"budget_spent"`
	Eliminated   int   `json:"eliminated_workers"`
	// ActiveLeases is the number of outstanding (issued, not yet
	// submitted or expired) assignment leases; ExpiredLeases counts the
	// slots reclaimed from vanished workers so far. Both are zero on a
	// server without leases.
	ActiveLeases  int   `json:"active_leases"`
	ExpiredLeases int64 `json:"expired_leases"`
}

// AnswerAckDTO acknowledges an accepted submission.
type AnswerAckDTO struct {
	Status string `json:"status"`
}

// HealthDTO is the liveness-probe response. Struct (not map) so the JSON
// key order is stable — probes and golden tests can compare bytes.
type HealthDTO struct {
	Status string `json:"status"`
	Tasks  int    `json:"tasks"`
}

// ResultDTO is one inferred label.
type ResultDTO struct {
	Task       core.TaskID `json:"task"`
	Label      int         `json:"label"`
	Option     string      `json:"option"`
	Confidence float64     `json:"confidence"`
}

func (s *Server) handleTask(w http.ResponseWriter, r *http.Request) {
	worker := r.URL.Query().Get("worker")
	if worker == "" {
		httpError(w, http.StatusBadRequest, "missing worker parameter")
		return
	}
	if s.screen != nil && s.screen.Eliminated(worker) {
		httpError(w, http.StatusForbidden, "worker eliminated by quality screening")
		return
	}
	// Advisory check: the authoritative reservation happens on the answer
	// path, but refusing assignments once the budget is gone keeps workers
	// from doing work that can no longer be paid for.
	if s.budget.Remaining() == 0 {
		httpError(w, http.StatusConflict, "budget exhausted")
		return
	}
	var (
		id  core.TaskID
		ok  bool
		err error
	)
	_, asp := obs.ChildSpan(r.Context(), "core.assign")
	if s.leaseTTL > 0 {
		// Lazy expiry first, so an assignment never waits a reaper tick to
		// see reclaimed slots; then assign + lease atomically.
		s.expireLeases()
		id, ok, err = s.cpool.AssignLease(s.assigner, worker, time.Now().Add(s.leaseTTL))
	} else {
		id, ok = s.cpool.Assign(s.assigner, worker)
	}
	if asp != nil {
		asp.SetAttr(obs.Str("worker", worker),
			obs.Bool("leased", s.leaseTTL > 0), obs.Bool("assigned", ok))
		if ok {
			asp.SetAttr(obs.Int("task", int64(id)),
				obs.Int("shard", int64(s.cpool.ShardFor(id))))
		}
		asp.SetError(err)
		asp.End()
	}
	if err != nil {
		httpError(w, http.StatusInternalServerError, "lease not persisted: "+err.Error())
		return
	}
	if !ok {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	t := s.cpool.Task(id)
	if t == nil {
		// The task vanished between assignment and lookup (reconfiguration
		// or a racing mutation). Nothing is wrong with the request; tell
		// the worker to retry rather than panicking the handler goroutine.
		httpError(w, http.StatusServiceUnavailable, "assigned task vanished, retry")
		return
	}
	writeJSON(w, TaskDTO{
		ID:       t.ID,
		Kind:     t.Kind.String(),
		Question: t.Question,
		Options:  t.Options,
	})
}

// maxAnswerBody bounds the /api/answer request body. A legitimate
// submission is a few hundred bytes; 1 MiB leaves generous headroom for
// collection-task text while keeping a hostile client from making the
// decoder buffer arbitrarily much per in-flight request.
const maxAnswerBody = 1 << 20

func (s *Server) handleAnswer(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, maxAnswerBody)
	var dto AnswerDTO
	if err := json.NewDecoder(r.Body).Decode(&dto); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			httpError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit))
			return
		}
		httpError(w, http.StatusBadRequest, "invalid JSON: "+err.Error())
		return
	}
	if dto.Worker == "" {
		httpError(w, http.StatusBadRequest, "missing worker")
		return
	}
	// Same gate as /api/task: elimination must also stop workers that skip
	// the assignment endpoint and POST answers directly, or screening only
	// screens the polite ones.
	if s.screen != nil && s.screen.Eliminated(dto.Worker) {
		httpError(w, http.StatusForbidden, "worker eliminated by quality screening")
		return
	}
	t := s.cpool.Task(dto.Task)
	if t == nil {
		httpError(w, http.StatusNotFound, fmt.Sprintf("unknown task %d", dto.Task))
		return
	}
	// Reserve one budget unit, then record; a rejected submission
	// (duplicate worker, task closed or removed in a race) refunds the
	// reservation so only accepted answers spend budget.
	if !s.budget.TryCharge(1) {
		httpError(w, http.StatusConflict, "budget exhausted")
		return
	}
	a := core.Answer{
		Task: dto.Task, Worker: dto.Worker,
		Option: dto.Option, Text: dto.Text, Score: dto.Score,
	}
	golden := s.gradeGolden(t, dto.Option, dto.Text)
	// Validate → append → apply, all under the task's shard lock: an answer
	// the pool rejects or the journal refuses was never applied, so the
	// only thing to hand back is the reservation.
	pos, err := s.cpool.Record(r.Context(), a, golden)
	if err != nil {
		s.budget.Refund(1)
		if errors.Is(err, core.ErrNotJournaled) {
			httpError(w, http.StatusInternalServerError, "answer not persisted: "+err.Error())
		} else {
			httpError(w, http.StatusConflict, err.Error())
		}
		return
	}
	// The answer is in the log and in the pool; only now may anyone else
	// learn of it.
	s.notifyCQL(a.Task)
	s.observeGolden(a.Worker, golden)
	// Ack-implies-durable: wait for the record's fsync (group commit), with
	// no lock held. A failure here is the one ambiguous outcome — the store
	// is sticky-failed with the answer applied and appended, so memory still
	// equals the log, but whether the record survives a power loss is not
	// known; the client's 500 means "resubmit after the restart".
	if s.store != nil {
		if err := s.store.Sync(r.Context(), s.cpool.ShardFor(a.Task), pos); err != nil {
			httpError(w, http.StatusInternalServerError, "answer not persisted: "+err.Error())
			return
		}
	}
	writeJSON(w, AnswerAckDTO{Status: "recorded"})
}

// gradeGolden grades a submission against a golden task's planted truth:
// the outcome the answer's journal record carries and the worker screen is
// fed once the answer is in. Nil for non-golden tasks or when screening is
// off.
func (s *Server) gradeGolden(t *core.Task, option int, text string) *bool {
	if s.screen == nil || !t.Golden {
		return nil
	}
	correct := false
	switch t.Kind {
	case core.SingleChoice, core.MultiChoice, core.PairwiseComparison:
		correct = option == t.GroundTruth
	case core.FillIn:
		correct = text == t.GroundTruthText
	}
	return &correct
}

// observeGolden feeds a recorded golden answer's grade to the worker
// screen. Nothing journals the elimination itself: the grade rides the
// answer's record, and recovery re-derives eliminations from the tallies.
func (s *Server) observeGolden(worker string, golden *bool) {
	if golden != nil {
		s.screen.Observe(worker, *golden)
	}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	var st StatsDTO
	s.cpool.ViewAll(func(pools []*core.Pool) {
		for _, p := range pools {
			st.Tasks += p.Len()
			st.OpenTasks += p.OpenCount()
			st.TotalAnswers += p.TotalAnswers()
			st.ActiveLeases += p.ActiveLeases()
		}
		st.Workers = core.WorkerCount(pools)
	})
	st.BudgetSpent = s.budget.Spent()
	st.ExpiredLeases = s.expired.Value()
	if s.screen != nil {
		st.Eliminated = len(s.screen.EliminatedWorkers())
	}
	writeJSON(w, st)
}

// handleHealthz is the liveness probe: a cheap 200 proving the handler
// goroutines and the pool lock are responsive (it takes the read lock via
// Len, so a deadlocked pool fails the probe by hanging into the server's
// write deadline instead of lying).
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, HealthDTO{Status: "ok", Tasks: s.cpool.Len()})
}

// shardView reads tasks and answers across the per-shard pools exposed by
// ShardedPool.ViewAll: lookups route by the same task hash the pool
// shards by. Valid only inside the ViewAll callback that produced it.
type shardView []*core.Pool

func (v shardView) Task(id core.TaskID) *core.Task {
	return v[core.ShardIndex(id, len(v))].Task(id)
}

func (v shardView) Answers(id core.TaskID) []core.Answer {
	return v[core.ShardIndex(id, len(v))].Answers(id)
}

// writeJSON answers 200 with v as JSON, or 500 when v cannot be encoded:
// the value is encoded in full before anything is sent, so a failure is
// never served as an empty 200.
func writeJSON(w http.ResponseWriter, v any) {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		httpError(w, http.StatusInternalServerError, "encode response: "+err.Error())
		return
	}
	sendJSON(w, buf.Bytes())
}

// sendJSON sends an already encoded JSON body in a single Write.
func sendJSON(w http.ResponseWriter, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	_, _ = w.Write(body) // a failed write means the client is gone
}

func httpError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": msg})
}
