package cql

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/operators"
	"repro/internal/stats"
)

// testManager builds a manager whose sessions are crowd-less.
func testManager(t *testing.T) *SessionManager {
	t.Helper()
	m, err := NewSessionManager(ServiceConfig{
		Factory: func(name string) (*Session, error) { return machineSession(), nil },
	})
	if err != nil {
		t.Fatalf("NewSessionManager: %v", err)
	}
	t.Cleanup(m.Close)
	return m
}

// mustRun executes src on the session and waits for the handle to finish.
func mustRun(t *testing.T, ms *ManagedSession, src string) *Query {
	t.Helper()
	q, err := ms.Execute(src)
	if err != nil {
		t.Fatalf("Execute(%q): %v", src, err)
	}
	if !q.Wait(5 * time.Second) {
		t.Fatalf("Execute(%q): query %s did not finish", src, q.ID())
	}
	if st := q.Status(); st != QueryDone {
		t.Fatalf("Execute(%q): status %s, err %q", src, st, q.Err())
	}
	return q
}

func TestSessionManagerLifecycle(t *testing.T) {
	var closedMu sync.Mutex
	var closed []string
	m, err := NewSessionManager(ServiceConfig{
		Factory: func(name string) (*Session, error) { return machineSession(), nil },
		OnClose: func(name string, s *Session) {
			closedMu.Lock()
			closed = append(closed, name)
			closedMu.Unlock()
		},
	})
	if err != nil {
		t.Fatalf("NewSessionManager: %v", err)
	}

	if _, err := m.Create("bad name!"); err == nil {
		t.Fatal("invalid session name accepted")
	}
	ms, err := m.Create("Alpha")
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	if _, err := m.Create("alpha"); err == nil {
		t.Fatal("duplicate (case-insensitive) session name accepted")
	}
	if got, ok := m.Get("ALPHA"); !ok || got != ms {
		t.Fatal("Get is not case-insensitive")
	}
	if n := m.SessionCount(); n != 1 {
		t.Fatalf("SessionCount = %d", n)
	}
	if names := m.SessionNames(); len(names) != 1 || names[0] != "Alpha" {
		t.Fatalf("SessionNames = %v", names)
	}

	if err := m.CloseSession("nope"); err == nil {
		t.Fatal("closing unknown session did not error")
	}
	if err := m.CloseSession("alpha"); err != nil {
		t.Fatalf("CloseSession: %v", err)
	}
	if _, ok := m.Get("alpha"); ok {
		t.Fatal("closed session still visible")
	}
	if _, err := ms.Execute(`CREATE TABLE t (id INT)`); err != ErrSessionClosed {
		t.Fatalf("Execute on closed session: %v", err)
	}

	if _, err := m.Create("beta"); err != nil {
		t.Fatalf("Create after close: %v", err)
	}
	m.Close()
	m.Close() // idempotent
	if _, err := m.Create("gamma"); err != ErrSessionClosed {
		t.Fatalf("Create on closed manager: %v", err)
	}
	closedMu.Lock()
	defer closedMu.Unlock()
	if len(closed) != 2 || closed[0] != "Alpha" || closed[1] != "beta" {
		t.Fatalf("OnClose ran for %v, want [Alpha beta]", closed)
	}
}

func TestIdleSweepSkipsBusySessions(t *testing.T) {
	remote := newGatedRemote(1, 1)
	var closedMu sync.Mutex
	closed := map[string]bool{}
	m, err := NewSessionManager(ServiceConfig{
		Factory: func(name string) (*Session, error) {
			if name == "busy" {
				return remoteSession(remote), nil
			}
			return machineSession(), nil
		},
		IdleTTL: time.Hour,
		OnClose: func(name string, s *Session) {
			closedMu.Lock()
			closed[name] = true
			closedMu.Unlock()
		},
	})
	if err != nil {
		t.Fatalf("NewSessionManager: %v", err)
	}
	defer m.Close()

	idle, _ := m.Create("idle")
	mustRun(t, idle, `CREATE TABLE t (id INT)`)
	busy, _ := m.Create("busy")
	mustRun(t, busy, `CREATE TABLE pets (id INT, kind STRING)`)
	mustRun(t, busy, `INSERT INTO pets VALUES (1, 'beagle')`)
	q, err := busy.Execute(`SELECT * FROM pets WHERE CROWDFILTER('dog?', kind)`)
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	remote.waitPublished(t, 1) // the crowd question is in flight, blocked

	// Two hours later the idle session expires; the busy one survives
	// because its query is still running.
	m.sweepIdle(time.Now().Add(2 * time.Hour))
	if _, ok := m.Get("idle"); ok {
		t.Fatal("idle session survived the sweep")
	}
	if _, ok := m.Get("busy"); !ok {
		t.Fatal("busy session was swept mid-query")
	}
	closedMu.Lock()
	if !closed["idle"] || closed["busy"] {
		t.Fatalf("OnClose state wrong: %v", closed)
	}
	closedMu.Unlock()

	remote.release()
	if !q.Wait(5 * time.Second) {
		t.Fatal("busy query did not finish after release")
	}
}

func TestPreparedStatements(t *testing.T) {
	m := testManager(t)
	ms, _ := m.Create("s1")
	mustRun(t, ms, `CREATE TABLE nums (id INT)`)
	mustRun(t, ms, `INSERT INTO nums VALUES (1), (2), (3)`)

	if err := ms.Prepare("", `SELECT id FROM nums`); err == nil {
		t.Fatal("unnamed prepared statement accepted")
	}
	if err := ms.Prepare("bad", `SELEC id FROM nums`); err == nil {
		t.Fatal("unparsable prepared statement accepted")
	}
	if err := ms.Prepare("evens", `SELECT id FROM nums WHERE id = 2`); err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	if names := ms.PreparedNames(); len(names) != 1 || names[0] != "evens" {
		t.Fatalf("PreparedNames = %v", names)
	}
	if _, err := ms.ExecutePrepared("odds"); err == nil {
		t.Fatal("unknown prepared statement executed")
	}

	q, err := ms.ExecutePrepared("Evens") // names are case-insensitive
	if err != nil {
		t.Fatalf("ExecutePrepared: %v", err)
	}
	if !q.Wait(5*time.Second) || q.Status() != QueryDone {
		t.Fatalf("prepared query: status %s err %q", q.Status(), q.Err())
	}
	page, err := q.Page("", 10)
	if err != nil {
		t.Fatalf("Page: %v", err)
	}
	if len(page.Rows) != 1 || page.Rows[0][0] != "2" {
		t.Fatalf("prepared result = %v", page.Rows)
	}

	// Re-preparing a name replaces the statement.
	if err := ms.Prepare("evens", `SELECT id FROM nums WHERE id <> 2 ORDER BY id`); err != nil {
		t.Fatalf("re-Prepare: %v", err)
	}
	q2, _ := ms.ExecutePrepared("evens")
	q2.Wait(5 * time.Second)
	if page, _ = q2.Page("", 10); len(page.Rows) != 2 {
		t.Fatalf("replaced prepared result = %v", page.Rows)
	}
}

func TestQueryPagination(t *testing.T) {
	m := testManager(t)
	ms, _ := m.Create("s1")
	mustRun(t, ms, `CREATE TABLE nums (id INT)`)
	var sb strings.Builder
	sb.WriteString(`INSERT INTO nums VALUES `)
	for i := 1; i <= 10; i++ {
		if i > 1 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%d)", i)
	}
	mustRun(t, ms, sb.String())
	q := mustRun(t, ms, `SELECT id FROM nums ORDER BY id`)

	got, _ := ms.Query(q.ID())
	if got != q {
		t.Fatal("Query lookup by id failed")
	}

	var rows [][]string
	token, pages := "", 0
	for {
		page, err := q.Page(token, 4)
		if err != nil {
			t.Fatalf("Page(%q): %v", token, err)
		}
		if page.Partial || page.Status != QueryDone {
			t.Fatalf("finished query page = %+v", page)
		}
		rows = append(rows, page.Rows...)
		pages++
		if page.NextPageToken == "" {
			break
		}
		token = page.NextPageToken
	}
	if pages != 3 || len(rows) != 10 {
		t.Fatalf("pages=%d rows=%d", pages, len(rows))
	}
	if rows[0][0] != "1" || rows[9][0] != "10" {
		t.Fatalf("row order wrong: %v", rows)
	}

	if _, err := q.Page("zzz", 4); err == nil {
		t.Fatal("bad page token accepted")
	}
	// Beyond-the-end token on a finished query: empty terminal page.
	page, err := q.Page("r10", 4)
	if err != nil || len(page.Rows) != 0 || page.NextPageToken != "" {
		t.Fatalf("past-end page = %+v err=%v", page, err)
	}
}

func TestExecuteMultiScript(t *testing.T) {
	m := testManager(t)
	ms, _ := m.Create("s1")
	q, err := ms.Execute(`
		CREATE TABLE t (id INT, name STRING);
		INSERT INTO t VALUES (1, 'a'), (2, 'b');
		SELECT name FROM t ORDER BY id DESC`)
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if !q.Wait(5*time.Second) || q.Status() != QueryDone {
		t.Fatalf("script: status %s err %q", q.Status(), q.Err())
	}
	page, _ := q.Page("", 10)
	if len(page.Cols) != 1 || page.Cols[0] != "name" {
		t.Fatalf("script cols = %v", page.Cols)
	}
	if len(page.Rows) != 2 || page.Rows[0][0] != "b" {
		t.Fatalf("script rows = %v", page.Rows)
	}

	// A failing statement mid-script surfaces on the handle.
	q2, err := ms.Execute(`INSERT INTO t VALUES (3, 'c'); SELECT nope FROM t`)
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	q2.Wait(5 * time.Second)
	if q2.Status() != QueryError || q2.Err() == "" {
		t.Fatalf("script error: status %s err %q", q2.Status(), q2.Err())
	}
}

// gatedRemote answers every crowd question with a fixed option, in round
// order, blocking from the blockAfter-th question it was ever handed until
// released or canceled. A round is published whole, so published counts
// every question of every round the moment its Ask call arrives. It
// stands in for the serving-pool gateway.
type gatedRemote struct {
	option     int
	blockAfter int // 0 = never block
	releaseCh  chan struct{}

	mu        sync.Mutex
	rounds    int
	published int
}

func newGatedRemote(option, blockAfter int) *gatedRemote {
	return &gatedRemote{option: option, blockAfter: blockAfter, releaseCh: make(chan struct{})}
}

func (g *gatedRemote) release() { close(g.releaseCh) }

// counts returns how many rounds and questions were published so far.
func (g *gatedRemote) counts() (rounds, published int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.rounds, g.published
}

func (g *gatedRemote) waitPublished(t *testing.T, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, got := g.counts()
		if got >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("remote saw %d questions, want %d", got, n)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func (g *gatedRemote) Ask(ctx context.Context, round []operators.Question, k int, resolved func(int, []core.Answer)) error {
	g.mu.Lock()
	g.rounds++
	first := g.published
	g.published += len(round)
	g.mu.Unlock()
	for i, q := range round {
		if g.blockAfter > 0 && first+i+1 >= g.blockAfter {
			select {
			case <-g.releaseCh:
			case <-ctx.Done():
				return ctx.Err()
			}
		}
		answers := make([]core.Answer, k)
		for j := range answers {
			answers[j] = core.Answer{Task: q.Task.ID, Worker: fmt.Sprintf("w%d", j), Option: g.option}
		}
		resolved(i, answers)
	}
	return nil
}

// remoteSession builds a session whose crowd questions go to remote.
func remoteSession(remote operators.RemoteSource) *Session {
	rng := stats.NewRNG(7)
	runner := operators.NewRunner(nil, nil, rng)
	runner.Remote = remote
	return NewSession(NewCatalog(), runner, rng.Split())
}

func TestCrowdQueryStreamsPartialRows(t *testing.T) {
	remote := newGatedRemote(1, 3) // answer "yes", block on the round's 3rd question
	m, err := NewSessionManager(ServiceConfig{
		Factory: func(name string) (*Session, error) { return remoteSession(remote), nil },
	})
	if err != nil {
		t.Fatalf("NewSessionManager: %v", err)
	}
	defer m.Close()
	ms, _ := m.Create("s1")
	mustRun(t, ms, `CREATE TABLE pets (id INT, kind STRING)`)
	mustRun(t, ms, `INSERT INTO pets VALUES (1, 'beagle'), (2, 'poodle'), (3, 'husky')`)

	q, err := ms.Execute(`SELECT * FROM pets WHERE CROWDFILTER('dog?', kind)`)
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}

	// All three questions are published as one round; the first two
	// resolve immediately and their rows must appear on the handle while
	// the third question is still blocked.
	deadline := time.Now().Add(5 * time.Second)
	for q.RowCount() < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("partial rows = %d after 5s (status %s)", q.RowCount(), q.Status())
		}
		time.Sleep(2 * time.Millisecond)
	}
	page, err := q.Page("", 10)
	if err != nil {
		t.Fatalf("Page: %v", err)
	}
	if page.Status != QueryRunning || !page.Partial {
		t.Fatalf("mid-flight page status=%s partial=%v", page.Status, page.Partial)
	}
	if len(page.Rows) != 2 || page.Rows[0][1] != "beagle" || page.Rows[1][1] != "poodle" {
		t.Fatalf("partial rows = %v", page.Rows)
	}
	if page.NextPageToken != "r2" {
		t.Fatalf("mid-flight token = %q", page.NextPageToken)
	}

	// fetchNextPage with the mid-flight cursor stays valid after the
	// query completes: partial rows are a prefix of the final result.
	remote.release()
	if !q.Wait(5 * time.Second) {
		t.Fatal("query did not finish after release")
	}
	next, err := q.Page(page.NextPageToken, 10)
	if err != nil {
		t.Fatalf("Page(next): %v", err)
	}
	if next.Status != QueryDone || next.Partial {
		t.Fatalf("final page status=%s partial=%v", next.Status, next.Partial)
	}
	if len(next.Rows) != 1 || next.Rows[0][1] != "husky" || next.NextPageToken != "" {
		t.Fatalf("final page = %+v", next)
	}
}

func TestCancelQueryMidFlight(t *testing.T) {
	remote := newGatedRemote(1, 2) // first question answers, second blocks
	m, err := NewSessionManager(ServiceConfig{
		Factory: func(name string) (*Session, error) { return remoteSession(remote), nil },
	})
	if err != nil {
		t.Fatalf("NewSessionManager: %v", err)
	}
	defer m.Close()
	ms, _ := m.Create("s1")
	mustRun(t, ms, `CREATE TABLE pets (id INT, kind STRING)`)
	mustRun(t, ms, `INSERT INTO pets VALUES (1, 'beagle'), (2, 'poodle'), (3, 'husky')`)

	// Two crowd predicates are two rounds; the cancel lands inside the
	// first.
	q, err := ms.Execute(`SELECT * FROM pets WHERE CROWDFILTER('dog?', kind) AND CROWDFILTER('big?', kind)`)
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	remote.waitPublished(t, 3)

	if _, ok := ms.CancelQuery("q999"); ok {
		t.Fatal("canceling unknown query reported success")
	}
	if h, ok := ms.CancelQuery(q.ID()); !ok || h != q {
		t.Fatal("CancelQuery did not return the handle it canceled")
	}
	if !q.Wait(5 * time.Second) {
		t.Fatal("canceled query did not unwind")
	}
	if q.Status() != QueryCanceled {
		t.Fatalf("status = %s, err %q", q.Status(), q.Err())
	}
	// Nothing further was published after the cancel: the second
	// predicate's round never reached the crowd.
	if rounds, published := remote.counts(); rounds != 1 || published != 3 {
		t.Fatalf("after cancel: %d rounds / %d questions published, want 1 / 3", rounds, published)
	}
	// Canceling again is a harmless no-op and the session keeps working.
	ms.CancelQuery(q.ID())
	done := mustRun(t, ms, `SELECT id FROM pets ORDER BY id`)
	if page, _ := done.Page("", 10); len(page.Rows) != 3 {
		t.Fatalf("session unusable after cancel: %v", page.Rows)
	}
}

func TestProgressTargetShapes(t *testing.T) {
	s := crowdSession(21, 10)
	mustExec(t, s, `CREATE TABLE pets (id INT, kind STRING, fur STRING CROWD)`)
	mustExec(t, s, `CREATE TABLE plain (id INT, kind STRING)`)

	cases := []struct {
		src    string
		stream bool
	}{
		{`SELECT * FROM pets WHERE CROWDFILTER('dog?', kind)`, true},
		{`SELECT * FROM pets`, true},                                          // star select fills the crowd column
		{`SELECT * FROM plain`, false},                                        // no crowd stage anywhere
		{`SELECT id FROM pets WHERE CROWDFILTER('dog?', kind)`, false},        // narrowing projection
		{`SELECT * FROM pets WHERE CROWDFILTER('dog?', kind) LIMIT 1`, false}, // limit above
		{`SELECT * FROM pets WHERE CROWDFILTER('dog?', kind) ORDER BY id`, false},
	}
	for _, tc := range cases {
		stmts, err := ParseAll(tc.src)
		if err != nil {
			t.Fatalf("parse %q: %v", tc.src, err)
		}
		plan, err := s.Plan(stmts[0].(*Select), s.Optimize)
		if err != nil {
			t.Fatalf("plan %q: %v", tc.src, err)
		}
		if got := progressTarget(plan) != nil; got != tc.stream {
			t.Errorf("%q: streamable = %v, want %v (plan %s)",
				tc.src, got, tc.stream, plan.Describe())
		}
	}
}

// A Close racing a slow (catalog-loading) factory must not leave the new
// session registered in a closed manager's map: the recheck under the
// lock drops it and shuts it down immediately, so OnClose (catalog
// persistence) still runs.
func TestCreateRacingCloseShutsSessionDown(t *testing.T) {
	factoryEntered := make(chan struct{})
	factoryRelease := make(chan struct{})
	var closedMu sync.Mutex
	var closed []string
	m, err := NewSessionManager(ServiceConfig{
		Factory: func(name string) (*Session, error) {
			close(factoryEntered)
			<-factoryRelease
			return machineSession(), nil
		},
		OnClose: func(name string, s *Session) {
			closedMu.Lock()
			closed = append(closed, name)
			closedMu.Unlock()
		},
	})
	if err != nil {
		t.Fatalf("NewSessionManager: %v", err)
	}
	type res struct {
		ms  *ManagedSession
		err error
	}
	resCh := make(chan res, 1)
	go func() {
		ms, err := m.Create("raced")
		resCh <- res{ms, err}
	}()
	<-factoryEntered
	m.Close() // closes while the factory is mid-flight
	close(factoryRelease)
	r := <-resCh
	if r.err != ErrSessionClosed || r.ms != nil {
		t.Fatalf("Create racing Close = (%v, %v), want (nil, ErrSessionClosed)", r.ms, r.err)
	}
	if n := m.SessionCount(); n != 0 {
		t.Fatalf("closed manager still holds %d sessions", n)
	}
	closedMu.Lock()
	defer closedMu.Unlock()
	if len(closed) != 1 || closed[0] != "raced" {
		t.Fatalf("OnClose ran for %v, want [raced]", closed)
	}
}

// backdate simulates a session whose last activity was `ago` in the past,
// so sweeps can be driven deterministically without sleeping.
func backdate(ms *ManagedSession, ago time.Duration) {
	ms.meta.Lock()
	ms.lastUsed = time.Now().Add(-ago)
	ms.meta.Unlock()
}

// Polling, paging, and canceling a query are session activity: a client
// paginating a finished crowd query's results past IdleTTL must not have
// the session reaped out from under it (regression: touch was never
// wired, so only execute refreshed lastUsed).
func TestPollingKeepsSessionAlive(t *testing.T) {
	m, err := NewSessionManager(ServiceConfig{
		Factory: func(name string) (*Session, error) { return machineSession(), nil },
		IdleTTL: time.Hour,
	})
	if err != nil {
		t.Fatalf("NewSessionManager: %v", err)
	}
	defer m.Close()
	ms, _ := m.Create("pager")
	mustRun(t, ms, `CREATE TABLE t (id INT)`)
	mustRun(t, ms, `INSERT INTO t VALUES (1), (2), (3)`)
	q := mustRun(t, ms, `SELECT id FROM t ORDER BY id`)

	// Page past several idle TTLs: each round the session has been silent
	// for well over the TTL when the client fetches its next page, and the
	// fetch must reset the clock so the following sweep keeps the session.
	token := ""
	for round := 0; round < 3; round++ {
		backdate(ms, 2*time.Hour)
		h, ok := ms.Query(q.ID())
		if !ok {
			t.Fatalf("round %d: query handle gone", round)
		}
		page, err := h.Page(token, 1)
		if err != nil {
			t.Fatalf("round %d: Page: %v", round, err)
		}
		token = page.NextPageToken
		m.sweepIdle(time.Now().Add(30 * time.Minute))
		if _, ok := m.Get("pager"); !ok {
			t.Fatalf("round %d: session reaped under an actively paginating client", round)
		}
	}

	// Cancel is activity too.
	backdate(ms, 2*time.Hour)
	if _, ok := ms.CancelQuery(q.ID()); !ok {
		t.Fatal("CancelQuery lost the handle")
	}
	m.sweepIdle(time.Now().Add(30 * time.Minute))
	if _, ok := m.Get("pager"); !ok {
		t.Fatal("session reaped right after a cancel")
	}

	// With no activity the sweep still reaps.
	backdate(ms, 2*time.Hour)
	m.sweepIdle(time.Now())
	if _, ok := m.Get("pager"); ok {
		t.Fatal("idle session survived the sweep")
	}
}

// CancelQuery resolves existence and cancellation in one lookup, so at
// the retention boundary a pruned handle reports "unknown" and a live one
// always comes back with the handle that was canceled.
func TestCancelQueryAtRetentionBoundary(t *testing.T) {
	m := testManager(t)
	ms, _ := m.Create("s1")
	mustRun(t, ms, `CREATE TABLE t (id INT)`)
	mustRun(t, ms, `INSERT INTO t VALUES (1)`)
	for i := 0; i < retainedQueries+2; i++ {
		mustRun(t, ms, `SELECT id FROM t`)
	}
	// q1/q2 (the DDL and first insert) are long pruned.
	if _, ok := ms.Query("q1"); ok {
		t.Fatal("expected q1 to be pruned past the retention cap")
	}
	if h, ok := ms.CancelQuery("q1"); ok || h != nil {
		t.Fatal("cancel of a pruned handle reported success")
	}
	latest := fmt.Sprintf("q%d", retainedQueries+4)
	h, ok := ms.CancelQuery(latest)
	if !ok || h == nil || h.ID() != latest {
		t.Fatalf("CancelQuery(%s) = (%v, %v), want the live handle", latest, h, ok)
	}
	if h.Status() != QueryDone {
		t.Fatalf("canceling a finished query flipped its status to %s", h.Status())
	}
}
