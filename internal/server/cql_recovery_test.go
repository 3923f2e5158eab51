package server

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/assign"
	"repro/internal/core"
	"repro/internal/cql"
	"repro/internal/durable"
)

// durableCQLServer boots a server with both the durable store (dataDir)
// and the query service with catalog persistence (cqlDir) mounted — the
// in-process equivalent of `crowdserve -data-dir ... -cql-dir ...`.
func durableCQLServer(t *testing.T, dataDir, cqlDir string, units int64) (*httptest.Server, *Server, *durable.Store, *durable.RecoveryInfo, *core.Budget) {
	t.Helper()
	store, info, err := durable.Open(dataDir, durable.Options{Fsync: durable.FsyncNever, Segments: testShards()})
	if err != nil {
		t.Fatal(err)
	}
	budget := core.NewBudget(units)
	srv, err := New(nil, assign.FewestAnswers{}, budget, nil,
		WithShards(testShards()),
		WithDurability(store),
		WithCQL(CQLConfig{Dir: cqlDir, Redundancy: 3, ExecuteGrace: 5 * time.Millisecond}),
		WithLeaseTTL(time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(func() { ts.Close(); srv.Close() })
	return ts, srv, store, info, budget
}

// cqlPrepare registers a named prepared statement over HTTP.
func cqlPrepare(t *testing.T, base, session, name, src string) {
	t.Helper()
	if code := doJSON(t, "POST", base+"/api/cql/session/"+session+"/prepare",
		CQLExecuteDTO{Name: name, Src: src}, nil); code != http.StatusOK {
		t.Fatalf("prepare %q: status %d", name, code)
	}
}

const cqlSeedSQL = `
	CREATE TABLE pets (id INT, kind STRING);
	INSERT INTO pets VALUES (1,'beagle'),(2,'poodle'),(3,'husky')`

// TestCQLSessionsSurviveCrash pins the session-durability tentpole: after
// kill -9, reopening the same -data-dir + -cql-dir brings back every
// session that was open at crash time with its catalog and prepared
// statements intact — while a session that was closed gracefully before
// the crash stays closed.
func TestCQLSessionsSurviveCrash(t *testing.T) {
	dataDir, cqlDir := t.TempDir(), t.TempDir()
	ts, _, store, info, _ := durableCQLServer(t, dataDir, cqlDir, 50)
	if !info.Empty() {
		t.Fatalf("expected empty data dir, recovered %+v", info)
	}
	cqlCreate(t, ts.URL, "etl")
	cqlPrepare(t, ts.URL, "etl", "kinds", `SELECT kind FROM pets ORDER BY id`)
	cqlExecuteDone(t, ts.URL, "etl", cqlSeedSQL)
	cqlCreate(t, ts.URL, "scratch")
	if code := doJSON(t, "DELETE", ts.URL+"/api/cql/session/scratch", nil, nil); code != http.StatusOK {
		t.Fatalf("close scratch: status %d", code)
	}
	store.Crash()

	ts2, _, _, info2, _ := durableCQLServer(t, dataDir, cqlDir, 50)
	if info2.CQLSessions != 1 || info2.CQLRunningQueries != 0 || info2.CQLOpenQuestions != 0 {
		t.Fatalf("recovery info %+v, want exactly one idle session", info2)
	}
	var list CQLSessionListDTO
	if code := doJSON(t, "GET", ts2.URL+"/api/cql/sessions", nil, &list); code != http.StatusOK {
		t.Fatalf("list sessions: status %d", code)
	}
	if len(list.Sessions) != 1 || list.Sessions[0] != "etl" {
		t.Fatalf("recovered sessions %v, want [etl] (scratch closed gracefully)", list.Sessions)
	}
	// The prepared statement and the catalog it reads both came back:
	// executing by name against the restored session sees the seeded rows.
	var page cql.QueryPage
	if code := doJSON(t, "POST", ts2.URL+"/api/cql/session/etl/execute",
		CQLExecuteDTO{Prepared: "kinds"}, &page); code != http.StatusOK {
		t.Fatalf("execute prepared after restart: status %d", code)
	}
	if page.Status != cql.QueryDone || len(page.Rows) != 3 {
		t.Fatalf("prepared query after restart: %+v, want 3 rows done", page)
	}
}

// TestCQLRefusedAppendLeavesNothingBehind: once the store refuses appends,
// creating a session, preparing a statement and executing a query answer
// 500 and leave no session, statement or query handle that the log does
// not hold; closing a session answers 500 too.
func TestCQLRefusedAppendLeavesNothingBehind(t *testing.T) {
	ts, srv, store, _, _ := durableCQLServer(t, t.TempDir(), t.TempDir(), 50)
	cqlCreate(t, ts.URL, "live")
	store.Crash()

	if code := doJSON(t, "POST", ts.URL+"/api/cql/session", CQLSessionDTO{Session: "ghost"}, nil); code != http.StatusInternalServerError {
		t.Fatalf("create on a crashed store: status %d, want 500", code)
	}
	var list CQLSessionListDTO
	if code := doJSON(t, "GET", ts.URL+"/api/cql/sessions", nil, &list); code != http.StatusOK {
		t.Fatalf("list sessions: status %d", code)
	}
	if len(list.Sessions) != 1 || list.Sessions[0] != "live" {
		t.Fatalf("sessions %v after a refused create, want [live]", list.Sessions)
	}
	if code := doJSON(t, "POST", ts.URL+"/api/cql/session/live/prepare",
		CQLExecuteDTO{Name: "p", Src: "CREATE TABLE t (id INT)"}, nil); code != http.StatusInternalServerError {
		t.Fatalf("prepare on a crashed store: status %d, want 500", code)
	}
	if code := doJSON(t, "POST", ts.URL+"/api/cql/session/live/execute",
		CQLExecuteDTO{Src: "CREATE TABLE t (id INT)"}, nil); code != http.StatusInternalServerError {
		t.Fatalf("execute on a crashed store: status %d, want 500", code)
	}
	ms, ok := srv.CQLSessions().Get("live")
	if !ok {
		t.Fatal("session live vanished")
	}
	if names := ms.PreparedNames(); len(names) != 0 {
		t.Fatalf("prepared statements %v survive a refused prepare", names)
	}
	if _, ok := ms.Query("q1"); ok {
		t.Fatal("a query handle survives a refused execute")
	}
	if code := doJSON(t, "DELETE", ts.URL+"/api/cql/session/live", nil, nil); code != http.StatusInternalServerError {
		t.Fatalf("close on a crashed store: status %d, want 500", code)
	}
}

// TestCQLCrashMidCrowdQueryReconcilesBudget is the budget-reconciliation
// golden test from the issue: crash with a round of three questions open,
// one of them at seen=1 of k=3, restart, and require /api/stats to match
// — stat for stat — a never-crashed control that received one answer and
// then canceled. The recovered server must also report the mid-flight
// query as "recovered" rather than 404ing its pollers.
func TestCQLCrashMidCrowdQueryReconcilesBudget(t *testing.T) {
	crowdSQL := `SELECT * FROM pets WHERE CROWDFILTER('is it a dog?', kind)`

	// askOneAnswer drives a server to the shared checkpoint: crowd query
	// running, exactly one answer acked.
	askOneAnswer := func(base string) (*Client, cql.QueryPage) {
		cqlCreate(t, base, "s")
		cqlExecuteDone(t, base, "s", cqlSeedSQL)
		client := NewClient(base)
		page := cqlExecute(t, base, "s", crowdSQL)
		if page.Status != cql.QueryRunning {
			t.Fatalf("crowd query resolved with no workers: %+v", page)
		}
		waitStats(t, client, "round published", func(st *StatsDTO) bool { return st.OpenTasks == 3 })
		dto, ok, err := client.FetchTask("w1")
		if err != nil || !ok {
			t.Fatalf("FetchTask: %v", err)
		}
		if err := client.SubmitAnswer(AnswerDTO{Task: dto.ID, Worker: "w1", Option: 1}); err != nil {
			t.Fatal(err)
		}
		waitStats(t, client, "answer recorded", func(st *StatsDTO) bool { return st.TotalAnswers == 1 })
		return client, page
	}

	// Control: same checkpoint, then a clean cancel.
	ctl, _ := newCQLTestServer(t, core.NewBudget(50), CQLConfig{Redundancy: 3},
		WithLeaseTTL(time.Minute))
	control, cpage := askOneAnswer(ctl.URL)
	if st := cqlCancel(t, ctl.URL, "s", cpage.Query); st != cql.QueryCanceled {
		t.Fatalf("control cancel status = %s", st)
	}
	want := waitStats(t, control, "control quiesced", func(st *StatsDTO) bool {
		return st.BudgetSpent == 1 && st.OpenTasks == 0
	})

	// Crash target: same checkpoint, then the store dies mid-query.
	dataDir, cqlDir := t.TempDir(), t.TempDir()
	ts, _, store, _, _ := durableCQLServer(t, dataDir, cqlDir, 50)
	_, page := askOneAnswer(ts.URL)
	store.Crash()

	ts2, _, _, info, budget := durableCQLServer(t, dataDir, cqlDir, 50)
	if info.CQLSessions != 1 || info.CQLRunningQueries != 1 || info.CQLOpenQuestions != 3 {
		t.Fatalf("recovery info %+v, want 1 session / 1 running query / the round's 3 open questions", info)
	}
	// The orphaned handle is pollable and terminal, not a 404.
	rp := cqlPoll(t, ts2.URL, "s", page.Query, "", 0)
	if rp.Status != cql.QueryRecovered || rp.Error == "" {
		t.Fatalf("orphaned query polls as %+v, want status %q with an explanation", rp, cql.QueryRecovered)
	}
	// The golden comparison: reconciliation refunded reserved − refunded,
	// so the crashed server's stats equal the canceled control's exactly.
	got, err := NewClient(ts2.URL).Stats()
	if err != nil {
		t.Fatal(err)
	}
	if *got != *want {
		t.Fatalf("recovered stats %+v diverge from never-crashed control %+v", got, want)
	}
	if got.BudgetSpent != 1 || budget.Spent() != 1 {
		t.Fatalf("spent %v (stats) / %v (budget), want exactly the one acked answer", got.BudgetSpent, budget.Spent())
	}
}
