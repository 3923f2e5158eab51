package server

import (
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/assign"
	"repro/internal/core"
	"repro/internal/cql"
	"repro/internal/durable"
)

// Round-model tests: a crowd stage publishes its whole frontier at once,
// and the arithmetic contracts (spend = answers recorded, a closed question
// holds no lease, a canceled or crashed round refunds Σ(k − seen)) hold
// with several questions open at different progress.

const roundCrowdSQL = `SELECT * FROM pets WHERE CROWDFILTER('is it a dog?', kind)`

// openQuestions waits until n CQL questions are open and returns their
// task IDs keyed by the pet kind each asks about.
func openQuestions(t *testing.T, srv *Server, n int) map[string]core.TaskID {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		byKind := map[string]core.TaskID{}
		served := flat(srv.cpool)
		for _, id := range served.OpenTasks() {
			q := served.Task(id).Question
			byKind[q[strings.LastIndexByte(q, ' ')+1:]] = id
		}
		if len(byKind) == n {
			return byKind
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d questions open, want %d", len(byKind), n)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// answerN records n answers for one task from fresh workers, waiting for
// the gateway to account each (so the next charge sees the refund).
func answerN(t *testing.T, client *Client, id core.TaskID, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		before, err := client.Stats()
		if err != nil {
			t.Fatal(err)
		}
		w := fmt.Sprintf("w-%d-%d", id, i)
		if err := client.SubmitAnswer(AnswerDTO{Task: id, Worker: w, Option: 1}); err != nil {
			t.Fatalf("answer %d for task %d: %v", i, id, err)
		}
		waitStats(t, client, "answer accounted", func(st *StatsDTO) bool {
			return st.TotalAnswers == before.TotalAnswers+1 && st.BudgetSpent == before.BudgetSpent
		})
	}
}

// waitersDrained fails unless the gateway's waiter map is empty: every exit
// path of a round (done, cancel, error) must unregister all its task IDs.
func waitersDrained(t *testing.T, srv *Server) {
	t.Helper()
	srv.cqlGw.mu.Lock()
	n := len(srv.cqlGw.waiters)
	srv.cqlGw.mu.Unlock()
	if n != 0 {
		t.Fatalf("gateway still holds %d waiter registrations", n)
	}
}

// waitQueryEnd polls a handle until it leaves running.
func waitQueryEnd(t *testing.T, base, session, qid string) cql.QueryPage {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		page := cqlPoll(t, base, session, qid, "", 0)
		if page.Status != cql.QueryRunning {
			return page
		}
		if time.Now().After(deadline) {
			t.Fatalf("query %s stuck running", qid)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// A budget that covers m < n questions publishes exactly the first m,
// resolves them, and then fails the statement — the spend (m·k) and the
// error of asking the questions one at a time.
func TestCQLRoundBudgetAffordsPrefix(t *testing.T) {
	// 3 questions at k=3 want 9 units; 8 covers two reservations (and the
	// slack the answer path's own charge needs before the gateway refunds).
	ts, srv := newCQLTestServer(t, core.NewBudget(8), CQLConfig{Redundancy: 3})
	client := NewClient(ts.URL)
	cqlCreate(t, ts.URL, "s")
	cqlExecuteDone(t, ts.URL, "s", cqlSeedSQL)

	page := cqlExecute(t, ts.URL, "s", roundCrowdSQL)
	if page.Status != cql.QueryRunning {
		t.Fatalf("crowd query resolved with no workers: %+v", page)
	}
	open := openQuestions(t, srv, 2)
	if _, ok := open["husky"]; ok || len(open) != 2 {
		t.Fatalf("published %v, want exactly the first two rows' questions", open)
	}
	if st, _ := client.Stats(); st.Tasks != 2 || st.BudgetSpent != 6 {
		t.Fatalf("after publish: %+v, want 2 tasks and both reservations charged", st)
	}
	answerN(t, client, open["beagle"], 3)
	answerN(t, client, open["poodle"], 3)

	end := waitQueryEnd(t, ts.URL, "s", page.Query)
	if end.Status != cql.QueryError || !strings.Contains(end.Error, "cql: budget exhausted") {
		t.Fatalf("query ended %s %q, want error cql: budget exhausted", end.Status, end.Error)
	}
	st, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Tasks != 2 || st.TotalAnswers != 6 || st.BudgetSpent != 6 || st.OpenTasks != 0 || st.ActiveLeases != 0 {
		t.Fatalf("final stats %+v, want 2 tasks, 6 answers, 6 units, nothing open", st)
	}
	waitersDrained(t, srv)
}

// Cancel mid-round with the three questions at k, 1 and 0 answers and a
// lease outstanding: every open question closes, its leases drop, and the
// spend is exactly the answers recorded. What a round leaves behind matches a
// control that never started the query.
func TestCQLRoundCancelMixedProgress(t *testing.T) {
	mk := func() (*httptest.Server, *Server, *Client) {
		ts, srv := newCQLTestServer(t, core.NewBudget(50), CQLConfig{Redundancy: 3},
			WithLeaseTTL(time.Minute))
		cqlCreate(t, ts.URL, "s")
		cqlExecuteDone(t, ts.URL, "s", cqlSeedSQL)
		return ts, srv, NewClient(ts.URL)
	}
	ts, srv, client := mk()
	_, _, control := mk()

	page := cqlExecute(t, ts.URL, "s", roundCrowdSQL)
	if page.Status != cql.QueryRunning {
		t.Fatalf("crowd query resolved with no workers: %+v", page)
	}
	open := openQuestions(t, srv, 3)
	answerN(t, client, open["beagle"], 3) // completes and closes
	answerN(t, client, open["poodle"], 1)
	waitStats(t, client, "first question closed", func(st *StatsDTO) bool { return st.OpenTasks == 2 })
	// One more worker holds a lease on an open question through the cancel.
	if _, ok, err := client.FetchTask("idler"); err != nil || !ok {
		t.Fatalf("FetchTask: %v (assigned %v)", err, ok)
	}
	waitStats(t, client, "lease issued", func(st *StatsDTO) bool { return st.ActiveLeases == 1 })

	if st := cqlCancel(t, ts.URL, "s", page.Query); st != cql.QueryCanceled {
		t.Fatalf("cancel status = %s", st)
	}
	got, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	want, err := control.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if got.TotalAnswers != 4 || got.BudgetSpent != 4 {
		t.Fatalf("answers=%d spent=%v, want exactly the 4 recorded answers", got.TotalAnswers, got.BudgetSpent)
	}
	if got.OpenTasks != want.OpenTasks || got.ActiveLeases != want.ActiveLeases ||
		got.ExpiredLeases != want.ExpiredLeases || got.Eliminated != want.Eliminated {
		t.Fatalf("canceled stats %+v leave more behind than the never-started control %+v", got, want)
	}
	if page := cqlPoll(t, ts.URL, "s", page.Query, "", 0); len(page.Rows) != 1 || page.Rows[0][1] != "beagle" {
		t.Fatalf("canceled handle rows = %v, want the one resolved prefix row", page.Rows)
	}
	waitersDrained(t, srv)
}

// Crash mid-round with four questions at 3 (closed), 2, 1 and 0 answers:
// the restart reconciles the three orphans to spend = acked answers, under
// the crashed layout's shard count and under a different one.
func TestCQLRoundCrashMixedProgressReconciles(t *testing.T) {
	boot := func(dataDir, cqlDir string, shards int) (*httptest.Server, *Server, *durable.Store, *durable.RecoveryInfo, *core.Budget) {
		store, info, err := durable.Open(dataDir, durable.Options{Fsync: durable.FsyncNever, Segments: shards})
		if err != nil {
			t.Fatal(err)
		}
		budget := core.NewBudget(50)
		srv, err := New(nil, assign.FewestAnswers{}, budget, nil,
			WithShards(shards), WithDurability(store), WithLeaseTTL(time.Minute),
			WithCQL(CQLConfig{Dir: cqlDir, Redundancy: 3, ExecuteGrace: 5 * time.Millisecond}))
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv)
		t.Cleanup(func() { ts.Close(); srv.Close() })
		return ts, srv, store, info, budget
	}
	for _, restartShards := range []int{2, 3} {
		t.Run(fmt.Sprintf("restart_shards_%d", restartShards), func(t *testing.T) {
			dataDir, cqlDir := t.TempDir(), t.TempDir()
			ts, srv, store, _, _ := boot(dataDir, cqlDir, 2)
			client := NewClient(ts.URL)
			cqlCreate(t, ts.URL, "s")
			cqlExecuteDone(t, ts.URL, "s", cqlSeedSQL+`; INSERT INTO pets VALUES (4,'corgi')`)
			page := cqlExecute(t, ts.URL, "s", roundCrowdSQL)
			if page.Status != cql.QueryRunning {
				t.Fatalf("crowd query resolved with no workers: %+v", page)
			}
			open := openQuestions(t, srv, 4)
			answerN(t, client, open["beagle"], 3)
			answerN(t, client, open["poodle"], 2)
			answerN(t, client, open["husky"], 1)
			waitStats(t, client, "first question closed", func(st *StatsDTO) bool { return st.OpenTasks == 3 })
			store.Crash()

			ts2, _, _, info, budget := boot(dataDir, cqlDir, restartShards)
			if info.CQLRunningQueries != 1 || info.CQLOpenQuestions != 3 {
				t.Fatalf("recovery info %+v, want 1 running query / 3 open questions", info)
			}
			got, err := NewClient(ts2.URL).Stats()
			if err != nil {
				t.Fatal(err)
			}
			if got.TotalAnswers != 6 || got.BudgetSpent != 6 || budget.Spent() != 6 {
				t.Fatalf("answers=%d spent=%v (budget %v), want exactly the 6 acked answers",
					got.TotalAnswers, got.BudgetSpent, budget.Spent())
			}
			if got.Tasks != 4 || got.OpenTasks != 0 || got.ActiveLeases != 0 {
				t.Fatalf("recovered stats %+v, want all 4 questions closed and no leases", got)
			}
		})
	}
}
