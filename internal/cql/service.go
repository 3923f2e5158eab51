// Service layer: named CQL sessions behind a SessionManager, with
// prepared statements, asynchronous query handles, cursor-token
// pagination, partial-result streaming, and cancellation. The surface is
// modeled on the CQLSession API (connect / execute / executeMulti /
// fetchNextPage / cancelQuery / close): a Session is single-threaded, so
// the manager serializes each session's statements behind a per-session
// mutex and exposes query handles that can be polled while a crowd query
// is still gathering answers.
package cql

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/obs"
)

// ErrSessionClosed is returned for operations on a closed session.
var ErrSessionClosed = errors.New("cql: session closed")

// SessionJournal observes session-lifecycle transitions for a durability
// layer: session create/close, statement prepare, and query start/finish.
// Methods are called synchronously on the mutating path. A create, prepare
// or query start is journaled before anyone can see it, and one the journal
// refuses fails with the error wrapped in core.ErrNotJournaled, leaving no
// session, statement or handle behind. A nil journal is off — the manager
// makes no calls at all, so the non-durable path is unchanged.
type SessionJournal interface {
	SessionCreated(name string) error
	SessionClosed(name string) error
	StatementPrepared(session, name, src string) error
	QueryStarted(session, qid, src string) error
	QueryFinished(session, qid string, status QueryStatus) error
}

func notJournaled(err error) error { return fmt.Errorf("%w: %w", core.ErrNotJournaled, err) }

// ServiceConfig wires a SessionManager.
type ServiceConfig struct {
	// Factory builds the underlying Session for a newly created named
	// session (catalog, runner, oracle, redundancy). Required.
	Factory func(name string) (*Session, error)
	// IdleTTL closes sessions that have neither executed nor been polled
	// for this long (0 = sessions live until closed explicitly).
	IdleTTL time.Duration
	// SweepEvery is the idle-sweeper interval (default IdleTTL/4, at
	// least 100ms). Only meaningful with IdleTTL > 0.
	SweepEvery time.Duration
	// PageSize is the default rows-per-page for query handles (default
	// 100).
	PageSize int
	// OnClose, when set, runs as a session closes — explicitly, by idle
	// sweep, or by manager shutdown — with the session's statement lock
	// held (no query mid-flight). This is the persistence hook: the
	// server saves the session catalog here.
	OnClose func(name string, s *Session)
	// OnMutate, when set, runs after every successfully executed statement
	// that changed the session's catalog (DDL/DML, or a crowd SELECT that
	// memoized fills into base tuples), with the statement lock held. This
	// is the incremental persistence hook: the server saves the catalog
	// here so a crash loses no committed mutation, not just on close.
	OnMutate func(name string, s *Session)
	// OnQueryDone, when set, observes every finished query (status
	// done/error/canceled and wall-clock duration) for metrics.
	OnQueryDone func(status QueryStatus, d time.Duration)
	// Journal, when set, records session lifecycle transitions for crash
	// recovery (see SessionJournal). Nil = durability off, zero overhead.
	Journal SessionJournal
	// Tracer, when set, records each query's execution as a trace: every
	// query runs under a fresh trace ID (carried on the handle and every
	// page as trace_id) with a cql.query root span, per-statement and
	// per-plan-stage child spans, and one cql.question span per crowd
	// question. Nil = tracing off, zero overhead.
	Tracer *obs.Collector
}

// SessionManager owns the named sessions of a CQL service.
type SessionManager struct {
	cfg ServiceConfig

	mu       sync.Mutex
	sessions map[string]*ManagedSession
	closed   bool

	stopSweep chan struct{}
	closeOnce sync.Once
}

// NewSessionManager builds a manager and starts its idle sweeper when
// IdleTTL is set. Call Close to stop it and close every session.
func NewSessionManager(cfg ServiceConfig) (*SessionManager, error) {
	if cfg.Factory == nil {
		return nil, errors.New("cql: SessionManager requires a Factory")
	}
	if cfg.PageSize <= 0 {
		cfg.PageSize = 100
	}
	m := &SessionManager{
		cfg:      cfg,
		sessions: make(map[string]*ManagedSession),
	}
	if cfg.IdleTTL > 0 {
		every := cfg.SweepEvery
		if every <= 0 {
			every = cfg.IdleTTL / 4
		}
		if every < 100*time.Millisecond {
			every = 100 * time.Millisecond
		}
		m.stopSweep = make(chan struct{})
		go m.sweepLoop(every)
	}
	return m, nil
}

// validSessionName gates names because they become directory names in the
// persisted catalog layout.
func validSessionName(name string) bool {
	if name == "" || len(name) > 64 {
		return false
	}
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '_':
		default:
			return false
		}
	}
	return true
}

// Create builds and registers a new named session. Names are
// case-insensitive and restricted to [A-Za-z0-9_-]{1,64}.
func (m *SessionManager) Create(name string) (*ManagedSession, error) {
	if !validSessionName(name) {
		return nil, fmt.Errorf("cql: invalid session name %q (want [A-Za-z0-9_-]{1,64})", name)
	}
	key := strings.ToLower(name)
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, ErrSessionClosed
	}
	if _, exists := m.sessions[key]; exists {
		m.mu.Unlock()
		return nil, fmt.Errorf("cql: session %q already exists", name)
	}
	// Reserve the name before the (possibly slow: catalog load) factory
	// call so concurrent creates cannot race to the same key.
	m.sessions[key] = nil
	m.mu.Unlock()

	sess, err := m.cfg.Factory(name)
	if err != nil || sess == nil {
		m.mu.Lock()
		delete(m.sessions, key)
		m.mu.Unlock()
		if err == nil {
			err = fmt.Errorf("cql: session factory returned nil for %q", name)
		}
		return nil, err
	}
	if j := m.cfg.Journal; j != nil {
		// Journaled before the session is registered: a refused append
		// leaves nothing a client or a restart could find.
		if err := j.SessionCreated(name); err != nil {
			m.mu.Lock()
			delete(m.sessions, key)
			m.mu.Unlock()
			return nil, notJournaled(err)
		}
	}
	ms := &ManagedSession{
		name:     name,
		mgr:      m,
		sess:     sess,
		lastUsed: time.Now(),
		prepared: make(map[string]preparedStmt),
		queries:  make(map[string]*Query),
	}
	m.mu.Lock()
	if m.closed {
		// The manager closed while the factory ran. Registering now would
		// strand the session in a closed manager's map — shutdown() and the
		// OnClose persistence hook would never run for it. Drop the
		// reservation and shut the fresh session down immediately instead.
		delete(m.sessions, key)
		m.mu.Unlock()
		_ = ms.shutdown() // the caller learns ErrSessionClosed either way
		return nil, ErrSessionClosed
	}
	m.sessions[key] = ms
	m.mu.Unlock()
	return ms, nil
}

// RestoredQuery describes a query handle to resurrect during recovery:
// the id it had and the source it was executing.
type RestoredQuery struct {
	ID  string
	Src string
}

// Restore rebuilds a session from journaled state during crash recovery.
// The factory loads the session's persisted catalog as usual, prepared
// statements re-parse from their journaled source, and the queries that
// were running at crash time come back as terminal handles with status
// "recovered" — clients polling them learn the results were lost instead
// of getting a 404. No journal hooks fire: the journal already holds
// every transition being replayed. Unlike Create, a prepared source that
// no longer parses is skipped rather than fatal — grammar drift across
// versions must not block recovery.
func (m *SessionManager) Restore(name string, prepared map[string]string, queries []RestoredQuery) (*ManagedSession, error) {
	if !validSessionName(name) {
		return nil, fmt.Errorf("cql: invalid session name %q (want [A-Za-z0-9_-]{1,64})", name)
	}
	key := strings.ToLower(name)
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, ErrSessionClosed
	}
	if _, exists := m.sessions[key]; exists {
		m.mu.Unlock()
		return nil, fmt.Errorf("cql: session %q already exists", name)
	}
	m.sessions[key] = nil
	m.mu.Unlock()

	sess, err := m.cfg.Factory(name)
	if err != nil || sess == nil {
		m.mu.Lock()
		delete(m.sessions, key)
		m.mu.Unlock()
		if err == nil {
			err = fmt.Errorf("cql: session factory returned nil for %q", name)
		}
		return nil, err
	}
	ms := &ManagedSession{
		name:     name,
		mgr:      m,
		sess:     sess,
		lastUsed: time.Now(),
		prepared: make(map[string]preparedStmt),
		queries:  make(map[string]*Query),
	}
	for pname, src := range prepared {
		stmts, perr := ParseAll(src)
		if perr != nil || len(stmts) == 0 {
			continue
		}
		ms.prepared[strings.ToLower(pname)] = preparedStmt{stmts: stmts, src: src}
	}
	for _, rq := range queries {
		q := recoveredQuery(rq.ID, m.cfg.PageSize)
		ms.queries[q.id] = q
		if n := q2n(rq.ID); n > ms.nextQ {
			// New queries must not reuse a resurrected handle's id.
			ms.nextQ = n
		}
	}
	m.mu.Lock()
	if m.closed {
		delete(m.sessions, key)
		m.mu.Unlock()
		_ = ms.shutdown() // the caller learns ErrSessionClosed either way
		return nil, ErrSessionClosed
	}
	m.sessions[key] = ms
	m.mu.Unlock()
	return ms, nil
}

// Get returns the named session, if present.
func (m *SessionManager) Get(name string) (*ManagedSession, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	ms, ok := m.sessions[strings.ToLower(name)]
	return ms, ok && ms != nil
}

// CloseSession cancels the session's queries, runs the OnClose hook, and
// removes it from the manager. The session is gone even when the journal
// refuses the close (the error wraps core.ErrNotJournaled); a restart then
// restores it.
func (m *SessionManager) CloseSession(name string) error {
	key := strings.ToLower(name)
	m.mu.Lock()
	ms, ok := m.sessions[key]
	if ok && ms != nil {
		delete(m.sessions, key)
	}
	m.mu.Unlock()
	if !ok || ms == nil {
		return fmt.Errorf("cql: unknown session %q", name)
	}
	return ms.shutdown()
}

// SessionCount returns the number of live sessions (a metrics gauge).
func (m *SessionManager) SessionCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, ms := range m.sessions {
		if ms != nil {
			n++
		}
	}
	return n
}

// SessionNames returns the live session names, sorted.
func (m *SessionManager) SessionNames() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, 0, len(m.sessions))
	for _, ms := range m.sessions {
		if ms != nil {
			out = append(out, ms.name)
		}
	}
	sort.Strings(out)
	return out
}

// Close stops the idle sweeper and closes every session (running the
// OnClose hook for each, so persisted catalogs are saved). Safe to call
// more than once.
func (m *SessionManager) Close() {
	m.closeOnce.Do(func() {
		if m.stopSweep != nil {
			close(m.stopSweep)
		}
		m.mu.Lock()
		m.closed = true
		var all []*ManagedSession
		for key, ms := range m.sessions {
			if ms != nil {
				all = append(all, ms)
			}
			delete(m.sessions, key)
		}
		m.mu.Unlock()
		for _, ms := range all {
			// Shutting down regardless: a close the journal refused
			// restores the session at the next boot, as a crash would.
			_ = ms.shutdown()
		}
	})
}

func (m *SessionManager) sweepLoop(every time.Duration) {
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-m.stopSweep:
			return
		case <-t.C:
			m.sweepIdle(time.Now())
		}
	}
}

// sweepIdle closes sessions idle longer than IdleTTL. A session with a
// running query is never idle: crowd queries legitimately take minutes.
// With a tracer configured, a sweep that closes sessions records under
// its own root span (endpoint bg.cql-idle-sweep in the trace index);
// idle sweeps discard theirs.
func (m *SessionManager) sweepIdle(now time.Time) {
	var sp *obs.Span
	if m.cfg.Tracer != nil {
		ctx := obs.WithCollector(context.Background(), m.cfg.Tracer)
		_, sp = obs.StartSpan(ctx, "bg.cql-idle-sweep")
	}
	m.mu.Lock()
	var expired []*ManagedSession
	for key, ms := range m.sessions {
		if ms == nil {
			continue
		}
		if ms.idleSince(now) >= m.cfg.IdleTTL {
			expired = append(expired, ms)
			delete(m.sessions, key)
		}
	}
	m.mu.Unlock()
	for _, ms := range expired {
		_ = ms.shutdown() // as in Close: a refused close restores the session at the next boot
	}
	if sp != nil {
		if len(expired) == 0 {
			sp.Discard()
		} else {
			sp.SetAttr(obs.Int("closed", int64(len(expired))))
		}
		sp.End()
	}
}

// retainedQueries caps how many finished query handles a session keeps;
// beyond it the oldest finished handles are dropped at the next launch.
const retainedQueries = 64

// ManagedSession wraps one single-threaded Session for concurrent HTTP
// access: mu serializes statement execution (held for a crowd query's
// whole runtime), meta guards the handle bookkeeping so polling a running
// query never touches the execution lock.
type ManagedSession struct {
	name string
	mgr  *SessionManager

	mu   sync.Mutex // statement execution: the Session itself
	sess *Session

	meta     sync.Mutex // everything below
	lastUsed time.Time
	closed   bool
	running  int
	prepared map[string]preparedStmt
	queries  map[string]*Query
	nextQ    int
}

// preparedStmt keeps a prepared statement's parse alongside its source
// text; the source is what the journal records, so recovery can re-prepare
// it on a fresh session.
type preparedStmt struct {
	stmts []Statement
	src   string
}

// Name returns the session's name.
func (ms *ManagedSession) Name() string { return ms.name }

// Session exposes the underlying Session. Callers must hold no query on
// the session (single-threaded); intended for setup and tests.
func (ms *ManagedSession) Session() *Session { return ms.sess }

func (ms *ManagedSession) idleSince(now time.Time) time.Duration {
	ms.meta.Lock()
	defer ms.meta.Unlock()
	if ms.running > 0 {
		return 0
	}
	return now.Sub(ms.lastUsed)
}

// Prepare parses src once and stores it under name; ExecutePrepared runs
// it later without re-parsing. Re-preparing a name replaces it.
func (ms *ManagedSession) Prepare(name, src string) error {
	if name == "" {
		return errors.New("cql: prepared statement needs a name")
	}
	stmts, err := ParseAll(src)
	if err != nil {
		return err
	}
	if len(stmts) == 0 {
		return errors.New("cql: empty statement")
	}
	ms.meta.Lock()
	closed := ms.closed
	ms.meta.Unlock()
	if closed {
		return ErrSessionClosed
	}
	if j := ms.mgr.cfg.Journal; j != nil {
		if err := j.StatementPrepared(ms.name, strings.ToLower(name), src); err != nil {
			return notJournaled(err)
		}
	}
	ms.meta.Lock()
	ms.lastUsed = time.Now()
	ms.prepared[strings.ToLower(name)] = preparedStmt{stmts: stmts, src: src}
	ms.meta.Unlock()
	return nil
}

// PreparedNames lists the session's prepared statements, sorted.
func (ms *ManagedSession) PreparedNames() []string {
	ms.meta.Lock()
	defer ms.meta.Unlock()
	out := make([]string, 0, len(ms.prepared))
	for n := range ms.prepared {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Execute parses src (one statement or a semicolon-separated script — the
// executeMulti case) and launches it, returning the query handle. The
// statement runs on its own goroutine behind the session lock; use
// Query.Wait or pagination to observe progress.
func (ms *ManagedSession) Execute(src string) (*Query, error) {
	stmts, err := ParseAll(src)
	if err != nil {
		return nil, err
	}
	if len(stmts) == 0 {
		return nil, errors.New("cql: empty statement")
	}
	return ms.launch(stmts, src)
}

// ExecutePrepared launches a statement stored by Prepare.
func (ms *ManagedSession) ExecutePrepared(name string) (*Query, error) {
	ms.meta.Lock()
	ps, ok := ms.prepared[strings.ToLower(name)]
	ms.meta.Unlock()
	if !ok {
		return nil, fmt.Errorf("cql: no prepared statement %q", name)
	}
	return ms.launch(ps.stmts, ps.src)
}

func (ms *ManagedSession) launch(stmts []Statement, src string) (*Query, error) {
	ms.meta.Lock()
	if ms.closed {
		ms.meta.Unlock()
		return nil, ErrSessionClosed
	}
	ms.pruneLocked()
	ms.nextQ++
	q := newQuery(fmt.Sprintf("q%d", ms.nextQ), ms.mgr.cfg.PageSize, ms.mgr.cfg.Tracer)
	ms.queries[q.id] = q
	ms.running++
	ms.lastUsed = time.Now()
	ms.meta.Unlock()
	if j := ms.mgr.cfg.Journal; j != nil {
		// Journaled before the goroutine starts: a crash at any later point
		// finds a started event, so the handle is resurrected as
		// "recovered" rather than vanishing. A refused append withdraws the
		// handle before any client learned its id.
		if err := j.QueryStarted(ms.name, q.id, src); err != nil {
			ms.meta.Lock()
			delete(ms.queries, q.id)
			ms.running--
			ms.meta.Unlock()
			q.cancel()
			return nil, notJournaled(err)
		}
	}
	go ms.run(q, stmts)
	return q, nil
}

// pruneLocked drops the oldest finished query handles beyond the
// retention cap. Callers hold ms.meta.
func (ms *ManagedSession) pruneLocked() {
	if len(ms.queries) < retainedQueries {
		return
	}
	var finished []*Query
	for _, q := range ms.queries {
		if q.Status() != QueryRunning {
			finished = append(finished, q)
		}
	}
	sort.Slice(finished, func(i, j int) bool { return q2n(finished[i].id) < q2n(finished[j].id) })
	for len(ms.queries) >= retainedQueries && len(finished) > 0 {
		delete(ms.queries, finished[0].id)
		finished = finished[1:]
	}
}

func q2n(id string) int {
	n, _ := strconv.Atoi(strings.TrimPrefix(id, "q"))
	return n
}

// stmtName labels a statement for its trace span ("Select",
// "CreateTable", ...).
func stmtName(st Statement) string {
	return strings.TrimPrefix(strings.TrimPrefix(fmt.Sprintf("%T", st), "*"), "cql.")
}

// run executes the statements behind the session lock and resolves the
// handle. Partial rows stream into the handle as crowd answers arrive.
// With a tracer configured, the whole run records under a cql.query root
// span with one cql.statement child per statement; the statement span's
// context flows into the executor, so plan-stage and crowd-question
// spans nest beneath it.
func (ms *ManagedSession) run(q *Query, stmts []Statement) {
	ms.mu.Lock()
	qctx, root := obs.ChildSpan(q.ctx, "cql.query")
	if root != nil {
		root.SetAttr(obs.Str("session", ms.name), obs.Str("query", q.id),
			obs.Int("statements", int64(len(stmts))))
	}
	var last *model.Relation
	var err error
	for i, st := range stmts {
		if err = q.ctx.Err(); err != nil {
			break
		}
		sctx, ssp := obs.ChildSpan(qctx, "cql.statement")
		if ssp != nil {
			ssp.SetAttr(obs.Int("index", int64(i)), obs.Str("type", stmtName(st)))
		}
		fillsBefore := ms.sess.Stats.Fills
		last, err = ms.sess.ExecuteStmtStream(sctx, st, q.appendPartial)
		if ssp != nil {
			ssp.SetError(err)
			ssp.End()
		}
		if err != nil {
			break
		}
		if hook := ms.mgr.cfg.OnMutate; hook != nil &&
			(stmtMutatesCatalog(st) || ms.sess.Stats.Fills > fillsBefore) {
			// Still under ms.mu: the catalog is quiescent, exactly as in the
			// OnClose hook. Per-statement persistence is cheap next to crowd
			// latency, and it means a crash after this point replays onto a
			// catalog that already holds this statement's effects.
			hook(ms.name, ms.sess)
		}
	}
	if root != nil {
		root.SetError(err)
		root.End()
	}
	ms.mu.Unlock()
	if err != nil {
		q.fail(err)
	} else {
		q.finish(last)
	}
	ms.meta.Lock()
	ms.running--
	ms.lastUsed = time.Now()
	ms.meta.Unlock()
	if j := ms.mgr.cfg.Journal; j != nil {
		// Nothing to undo and nobody to tell: the handle is already
		// terminal, and a lost finished record only makes a restart report
		// the query as recovered.
		_ = j.QueryFinished(ms.name, q.id, q.Status())
	}
	if hook := ms.mgr.cfg.OnQueryDone; hook != nil {
		hook(q.Status(), time.Since(q.started))
	}
}

// stmtMutatesCatalog reports whether a statement kind writes to the
// session catalog. Crowd SELECTs can also write back (CROWDFILL memoizes
// answers into base tuples); the caller detects those through the
// session's fill counter instead.
func stmtMutatesCatalog(st Statement) bool {
	switch st.(type) {
	case *CreateTable, *Insert, *DropTable, *Delete, *Update:
		return true
	}
	return false
}

// Query returns a handle by id. Looking a handle up counts as session
// activity: a client paginating a finished crowd query's results keeps
// the session out of the idle sweeper's reach.
func (ms *ManagedSession) Query(id string) (*Query, bool) {
	ms.meta.Lock()
	defer ms.meta.Unlock()
	ms.lastUsed = time.Now()
	q, ok := ms.queries[id]
	return q, ok
}

// CancelQuery cancels a running query: its context is canceled, so no
// further crowd questions are issued, the serving gateway releases the
// open round's leases, and reserved budget is refunded. Canceling a
// finished query is a no-op. The handle is returned from the same lookup
// that resolved the cancel, so a caller never sees "canceled but the
// handle is gone" even if retention pruning races it. Canceling counts as
// session activity for the idle sweeper.
func (ms *ManagedSession) CancelQuery(id string) (*Query, bool) {
	ms.meta.Lock()
	ms.lastUsed = time.Now()
	q, ok := ms.queries[id]
	ms.meta.Unlock()
	if !ok {
		return nil, false
	}
	q.cancel()
	return q, true
}

// shutdown cancels every query, waits for them to unwind, runs the OnClose
// hook with the session quiesced, and journals the close, returning the
// journal's refusal.
func (ms *ManagedSession) shutdown() error {
	ms.meta.Lock()
	if ms.closed {
		ms.meta.Unlock()
		return nil
	}
	ms.closed = true
	qs := make([]*Query, 0, len(ms.queries))
	for _, q := range ms.queries {
		qs = append(qs, q)
	}
	ms.meta.Unlock()
	for _, q := range qs {
		q.cancel()
	}
	for _, q := range qs {
		<-q.done
	}
	ms.mu.Lock()
	if ms.mgr.cfg.OnClose != nil {
		ms.mgr.cfg.OnClose(ms.name, ms.sess)
	}
	ms.mu.Unlock()
	if j := ms.mgr.cfg.Journal; j != nil {
		// Journaled after the catalog is persisted: a crash between the two
		// re-restores the session on top of its saved catalog, which is
		// merely redundant; the reverse order could mark a session closed
		// whose catalog was never saved.
		if err := j.SessionClosed(ms.name); err != nil {
			return notJournaled(err)
		}
	}
	return nil
}

// QueryStatus is a query handle's lifecycle state.
type QueryStatus string

// Query lifecycle: running -> done | error | canceled. Recovered is the
// terminal state of a query that was running when the server crashed: its
// handle survives recovery so clients polling it learn what happened, but
// its partial results are gone — re-execute to get them back.
const (
	QueryRunning   QueryStatus = "running"
	QueryDone      QueryStatus = "done"
	QueryError     QueryStatus = "error"
	QueryCanceled  QueryStatus = "canceled"
	QueryRecovered QueryStatus = "recovered"
)

// Query is an asynchronous statement handle. While the statement runs,
// Rows holds the partial rows that have cleared the pipeline's last crowd
// stage (in emission order); when it completes, the final result replaces
// them. Cursor tokens are plain row offsets, so a token obtained from a
// partial page stays valid after completion for pipeline-shaped queries
// (no reordering stage above the crowd stage — the partial rows are a
// prefix of the final ones).
type Query struct {
	id       string
	pageSize int
	traceID  string // "" when tracing is off
	started  time.Time
	ctx      context.Context
	cancel   context.CancelFunc
	done     chan struct{}

	mu      sync.Mutex
	status  QueryStatus
	partial bool // rows are stage previews, not the final result
	cols    []string
	rows    [][]string
	errMsg  string
}

func newQuery(id string, pageSize int, tracer *obs.Collector) *Query {
	base := context.Background()
	traceID := ""
	if tracer != nil {
		// A query gets its own fresh trace, not the executing HTTP
		// request's: that request's root span ends when execute returns a
		// handle — long before a crowd query resolves — which would fire
		// the trace's keep decision while the query is still running.
		traceID = obs.NewTraceID()
		base = obs.WithCollector(obs.WithTraceID(base, traceID), tracer)
	}
	ctx, cancel := context.WithCancel(base)
	return &Query{
		id:       id,
		pageSize: pageSize,
		traceID:  traceID,
		started:  time.Now(),
		ctx:      ctx,
		cancel:   cancel,
		done:     make(chan struct{}),
		status:   QueryRunning,
	}
}

// recoveredQuery builds the terminal handle of a query lost to a crash:
// status "recovered", no rows, done already resolved, so Wait returns
// immediately and cancel is a no-op.
func recoveredQuery(id string, pageSize int) *Query {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	q := &Query{
		id:       id,
		pageSize: pageSize,
		started:  time.Now(),
		ctx:      ctx,
		cancel:   cancel,
		done:     make(chan struct{}),
		status:   QueryRecovered,
		errMsg:   "query was running when the server went down; its task was closed and budget reconciled — re-execute for results",
	}
	close(q.done)
	return q
}

// ID returns the handle's identifier (unique within its session).
func (q *Query) ID() string { return q.id }

// TraceID returns the query's trace ID ("" when tracing is off). The
// trace is readable mid-run: a crowd query's spans accumulate while it
// gathers answers.
func (q *Query) TraceID() string { return q.traceID }

// Status returns the handle's lifecycle state.
func (q *Query) Status() QueryStatus {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.status
}

// Err returns the failure message ("" while running or on success).
func (q *Query) Err() string {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.errMsg
}

// Wait blocks until the query resolves or d elapses; reports whether it
// resolved.
func (q *Query) Wait(d time.Duration) bool {
	select {
	case <-q.done:
		return true
	case <-time.After(d):
		return false
	}
}

// RowCount returns how many rows the handle currently holds (partial
// while running).
func (q *Query) RowCount() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.rows)
}

// appendPartial receives one streamed row from the executor. Statement
// boundaries reset the buffer: in a script, each streaming SELECT starts
// its partial rows afresh (the handle resolves to the last statement's
// result, matching ExecuteScript).
func (q *Query) appendPartial(cols []string, row []string) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.status != QueryRunning {
		return
	}
	if !q.partial {
		q.partial = true
		q.rows = nil
	}
	q.cols = cols
	q.rows = append(q.rows, row)
}

func (q *Query) finish(rel *model.Relation) {
	q.mu.Lock()
	q.status = QueryDone
	q.partial = false
	q.cols = nil
	q.rows = nil
	if rel != nil {
		for _, c := range rel.Schema.Columns {
			q.cols = append(q.cols, c.Name)
		}
		for _, row := range rel.Tuples {
			q.rows = append(q.rows, renderTuple(row))
		}
	}
	q.mu.Unlock()
	q.cancel() // release the context's resources
	close(q.done)
}

func (q *Query) fail(err error) {
	q.mu.Lock()
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		q.status = QueryCanceled
	} else {
		q.status = QueryError
	}
	q.errMsg = err.Error()
	q.mu.Unlock()
	q.cancel()
	close(q.done)
}

// QueryPage is one fetchNextPage response.
type QueryPage struct {
	Query   string      `json:"query_id"`
	Status  QueryStatus `json:"status"`
	Partial bool        `json:"partial"`
	Cols    []string    `json:"cols,omitempty"`
	Rows    [][]string  `json:"rows"`
	// NextPageToken resumes after this page's rows. Non-empty while more
	// rows exist or may still arrive (the query is running); "" means the
	// result is exhausted.
	NextPageToken string `json:"next_page_token,omitempty"`
	Error         string `json:"error,omitempty"`
	// TraceID identifies the query's trace (omitted when tracing is off);
	// fetch it via GET .../query/{qid}/trace.
	TraceID string `json:"trace_id,omitempty"`
}

// Page serves one page of rows starting at the cursor token ("" = from
// the start). limit <= 0 uses the handle's default page size. A token
// past the current row count on a running query returns an empty page
// with the same token — the client polls until the server makes progress.
func (q *Query) Page(token string, limit int) (QueryPage, error) {
	offset := 0
	if token != "" {
		n, err := strconv.Atoi(strings.TrimPrefix(token, "r"))
		if err != nil || !strings.HasPrefix(token, "r") || n < 0 {
			return QueryPage{}, fmt.Errorf("cql: bad page token %q", token)
		}
		offset = n
	}
	if limit <= 0 {
		limit = q.pageSize
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	end := offset + limit
	if end > len(q.rows) {
		end = len(q.rows)
	}
	page := QueryPage{
		Query:   q.id,
		Status:  q.status,
		Partial: q.partial,
		Cols:    append([]string(nil), q.cols...),
		Error:   q.errMsg,
		Rows:    [][]string{},
		TraceID: q.traceID,
	}
	if offset < end {
		page.Rows = append(page.Rows, q.rows[offset:end]...)
	} else {
		end = offset
	}
	if q.status == QueryRunning || end < len(q.rows) {
		page.NextPageToken = "r" + strconv.Itoa(end)
	}
	return page, nil
}

// renderTuple stringifies a row for the wire: NULL renders as "".
func renderTuple(t model.Tuple) []string {
	out := make([]string, len(t))
	for i, v := range t {
		if v.IsNull() {
			out[i] = ""
		} else {
			out[i] = v.String()
		}
	}
	return out
}

// ExecuteStmtStream runs one statement under ctx; for SELECTs whose plan
// ends in a streamable crowd stage (see progressTarget), sink receives
// each row as it clears that stage — partial results while the crowd is
// still answering. Other statements behave exactly as ExecuteStmtCtx.
func (s *Session) ExecuteStmtStream(ctx context.Context, stmt Statement, sink func(cols, row []string)) (*model.Relation, error) {
	sel, ok := stmt.(*Select)
	if !ok || sink == nil || s.Runner == nil {
		return s.ExecuteStmtCtx(ctx, stmt)
	}
	plan, err := s.Plan(sel, s.Optimize)
	if err != nil {
		return nil, err
	}
	if target := progressTarget(plan); target != nil {
		s.progressNode = target
		s.progressFn = func(bs *boundSchema, row model.Tuple) {
			cols := make([]string, len(bs.cols))
			for i, c := range bs.cols {
				cols[i] = c.Name
			}
			sink(cols, renderTuple(row))
		}
		defer func() { s.progressNode, s.progressFn = nil, nil }()
	}
	if ctx == nil {
		ctx = context.Background()
	}
	prev := s.qctx
	s.qctx = ctx
	defer func() { s.qctx = prev }()
	return s.run(plan)
}

// progressTarget picks the plan node whose output streams to the
// partial-result sink: the last crowd stage of a linear pipeline, looking
// through star-only projections (which pass rows unchanged). Plans whose
// crowd work sits below a join, sort, aggregate, limit, or narrowing
// projection return nil — their stage output is not a prefix of the final
// result, so serving it as partial rows would lie.
func progressTarget(p PlanNode) PlanNode {
	for p != nil {
		switch n := p.(type) {
		case *ProjectNode:
			if len(n.Items) == 1 && n.Items[0].Star {
				p = n.Input
				continue
			}
			return nil
		case *CrowdFilterNode:
			return n
		case *CrowdFillNode:
			return n
		default:
			return nil
		}
	}
	return nil
}

// PlanHasCrowd reports whether any node of the plan consults the crowd.
func PlanHasCrowd(p PlanNode) bool {
	switch n := p.(type) {
	case *CrowdFillNode, *CrowdFilterNode, *CrowdJoinNode, *CrowdSortNode:
		return true
	case *AggregateNode:
		for _, it := range n.Items {
			if it.Agg == "CROWDCOUNT" {
				return true
			}
		}
	}
	for _, c := range p.Children() {
		if PlanHasCrowd(c) {
			return true
		}
	}
	return false
}
