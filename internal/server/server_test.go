package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/assign"
	"repro/internal/core"
	"repro/internal/crowd"
	"repro/internal/stats"
)

func testPool(rng *stats.RNG, n int) *core.Pool {
	pool := core.NewPool()
	for i := 0; i < n; i++ {
		pool.MustAdd(&core.Task{
			ID: core.TaskID(i + 1), Kind: core.SingleChoice,
			Question: "yes or no?", Options: []string{"no", "yes"},
			GroundTruth: rng.Intn(2), Difficulty: 0.2,
		})
	}
	return pool
}

// testShards resolves the shard count test servers run with: 1 by
// default, overridden by the CROWDKIT_TEST_SHARDS environment variable so
// the CI matrix re-runs the whole suite against a sharded pool.
func testShards() int {
	if v := os.Getenv("CROWDKIT_TEST_SHARDS"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			return n
		}
	}
	return 1
}

func newTestServer(t *testing.T, pool *core.Pool, budget *core.Budget, screen *core.WorkerScreen) (*httptest.Server, *Client) {
	t.Helper()
	ts, _, client := newServed(t, pool, budget, screen)
	return ts, client
}

// newServed is newTestServer that also hands back the server, whose pool
// is the served state (the seed pool is not).
func newServed(t *testing.T, pool *core.Pool, budget *core.Budget, screen *core.WorkerScreen) (*httptest.Server, *Server, *Client) {
	t.Helper()
	srv, err := New(pool, assign.FewestAnswers{}, budget, screen, WithShards(testShards()))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts, srv, NewClient(ts.URL)
}

// flat copies a served pool into one unlocked core.Pool under ViewAll —
// tasks in ID order with their answers, leases and closes — so a test
// reads the served state through the Pool API.
func flat(sp *core.ShardedPool) *core.Pool {
	out := core.NewPool()
	sp.ViewAll(func(pools []*core.Pool) {
		ids := core.TaskIDsOf(pools)
		for _, id := range ids {
			p := pools[core.ShardIndex(id, len(pools))]
			task := *p.Task(id)
			out.MustAdd(&task)
			for _, a := range p.Answers(id) {
				if err := out.Record(a); err != nil {
					panic(err)
				}
			}
		}
		for _, l := range core.LeasesOf(pools) {
			if err := out.Lease(l.Task, l.Worker, l.Deadline); err != nil {
				panic(err)
			}
		}
		for _, id := range ids {
			if pools[core.ShardIndex(id, len(pools))].Closed(id) {
				out.Close(id)
			}
		}
	})
	return out
}

func TestServerRequiresPoolAndAssigner(t *testing.T) {
	if _, err := New(nil, assign.FewestAnswers{}, nil, nil); err == nil {
		t.Fatal("nil pool should fail")
	}
	if _, err := New(core.NewPool(), nil, nil, nil); err == nil {
		t.Fatal("nil assigner should fail")
	}
}

func TestTaskAssignmentFlow(t *testing.T) {
	rng := stats.NewRNG(1)
	pool := testPool(rng, 3)
	_, client := newTestServer(t, pool, nil, nil)

	dto, ok, err := client.FetchTask("w1")
	if err != nil || !ok {
		t.Fatalf("FetchTask: %v %v", ok, err)
	}
	if dto.Kind != "single-choice" || len(dto.Options) != 2 {
		t.Fatalf("task DTO = %+v", dto)
	}
	if err := client.SubmitAnswer(AnswerDTO{Task: dto.ID, Worker: "w1", Option: 1}); err != nil {
		t.Fatal(err)
	}
	// Read back through the API: with WithShards > 1 the server splits the
	// seed pool, so the caller's pool object is no longer the live state.
	if st, err := client.Stats(); err != nil || st.TotalAnswers != 1 {
		t.Fatalf("stats after submit: %+v, %v; want 1 answer", st, err)
	}
	// Duplicate submission rejected (one answer per worker per task).
	if err := client.SubmitAnswer(AnswerDTO{Task: dto.ID, Worker: "w1", Option: 0}); err == nil {
		t.Fatal("duplicate answer should be rejected")
	}
	// Worker exhausts the pool and then gets 204.
	for i := 0; i < 2; i++ {
		d, ok, err := client.FetchTask("w1")
		if err != nil || !ok {
			t.Fatalf("fetch %d: %v %v", i, ok, err)
		}
		if err := client.SubmitAnswer(AnswerDTO{Task: d.ID, Worker: "w1", Option: 0}); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok, err := client.FetchTask("w1"); err != nil || ok {
		t.Fatalf("exhausted worker should get no task: %v %v", ok, err)
	}
}

func TestTaskEndpointValidation(t *testing.T) {
	rng := stats.NewRNG(2)
	ts, client := newTestServer(t, testPool(rng, 1), nil, nil)

	resp, err := http.Get(ts.URL + "/api/task") // missing worker
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing worker -> %d", resp.StatusCode)
	}
	// Unknown task answer.
	if err := client.SubmitAnswer(AnswerDTO{Task: 999, Worker: "w"}); err == nil {
		t.Fatal("unknown task should be rejected")
	}
	// Malformed JSON.
	resp, err = http.Post(ts.URL+"/api/answer", "application/json",
		bytes.NewReader([]byte("{not json")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed JSON -> %d", resp.StatusCode)
	}
	// Missing worker field.
	if err := client.SubmitAnswer(AnswerDTO{Task: 1}); err == nil {
		t.Fatal("missing worker should be rejected")
	}
}

func TestGroundTruthNeverLeaves(t *testing.T) {
	rng := stats.NewRNG(3)
	ts, _ := newTestServer(t, testPool(rng, 1), nil, nil)
	resp, err := http.Get(ts.URL + "/api/task?worker=w1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var raw map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		t.Fatal(err)
	}
	for key := range raw {
		if strings.Contains(strings.ToLower(key), "truth") {
			t.Fatalf("ground truth leaked over the wire: %v", raw)
		}
	}
}

func TestBudgetEnforcedOverHTTP(t *testing.T) {
	rng := stats.NewRNG(4)
	pool := testPool(rng, 10)
	_, client := newTestServer(t, pool, core.NewBudget(2), nil)
	for i := 0; i < 2; i++ {
		d, ok, err := client.FetchTask("w1")
		if err != nil || !ok {
			t.Fatal(err)
		}
		if err := client.SubmitAnswer(AnswerDTO{Task: d.ID, Worker: "w1", Option: 0}); err != nil {
			t.Fatal(err)
		}
	}
	// Budget gone: task fetch refuses.
	if _, _, err := client.FetchTask("w1"); err == nil {
		t.Fatal("budget-exhausted fetch should error")
	}
	st, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.BudgetSpent != 2 {
		t.Fatalf("stats budget = %v", st.BudgetSpent)
	}
}

func TestGoldenScreeningOverHTTP(t *testing.T) {
	rng := stats.NewRNG(5)
	pool := core.NewPool()
	for i := 0; i < 5; i++ {
		pool.MustAdd(&core.Task{
			ID: core.TaskID(i + 1), Kind: core.SingleChoice,
			Options: []string{"no", "yes"}, GroundTruth: 1,
			Golden: true, Difficulty: 0.05,
		})
	}
	_ = rng
	screen := core.NewWorkerScreen(3, 0.5)
	_, client := newTestServer(t, pool, nil, screen)
	// A worker that always answers 0 fails every golden.
	for i := 0; i < 3; i++ {
		d, ok, err := client.FetchTask("spammer")
		if err != nil || !ok {
			t.Fatal(err)
		}
		if err := client.SubmitAnswer(AnswerDTO{Task: d.ID, Worker: "spammer", Option: 0}); err != nil {
			t.Fatal(err)
		}
	}
	if !screen.Eliminated("spammer") {
		t.Fatal("spammer not eliminated")
	}
	if _, _, err := client.FetchTask("spammer"); err == nil {
		t.Fatal("eliminated worker should be refused")
	}
	st, _ := client.Stats()
	if st.Eliminated != 1 {
		t.Fatalf("stats eliminated = %d", st.Eliminated)
	}
}

// TestEndToEndCrowdOverHTTP drives workers sequentially (deterministic
// pairing) and checks the full fetch → answer → aggregate loop, including
// inferred accuracy against the planted truth.
func TestEndToEndCrowdOverHTTP(t *testing.T) {
	rng := stats.NewRNG(6)
	pool := testPool(rng, 60)
	_, client := newTestServer(t, pool, nil, nil)
	workers := crowd.NewPopulation(rng, 15, crowd.RegimeMixed)

	// Interleave workers round-robin, one task per turn, until nothing is
	// assignable — deterministic given the seed.
	for progress := true; progress; {
		progress = false
		for _, w := range workers {
			n, err := client.DriveWorker(w, pool.Task, 1)
			if err != nil {
				t.Fatal(err)
			}
			if n > 0 {
				progress = true
			}
		}
	}

	st, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.TotalAnswers != 60*15 || st.Workers != 15 {
		t.Fatalf("stats = %+v", st)
	}

	// Aggregate via the API and score against the planted truth.
	for _, method := range []string{"mv", "onecoin", "ds", "glad"} {
		results, err := client.Results(method)
		if err != nil {
			t.Fatalf("%s: %v", method, err)
		}
		if len(results) != 60 {
			t.Fatalf("%s: %d results", method, len(results))
		}
		correct := 0
		for _, r := range results {
			if r.Label == pool.Task(r.Task).GroundTruth {
				correct++
			}
			if r.Confidence < 0 || r.Confidence > 1 {
				t.Fatalf("confidence %v", r.Confidence)
			}
		}
		if correct < 54 { // 90% with 15 answers/task
			t.Fatalf("%s accuracy %d/60 over HTTP", method, correct)
		}
	}
	if _, err := client.Results("nope"); err == nil {
		t.Fatal("unknown method should fail")
	}
}

// TestConcurrentDriveTransport hammers the server with concurrent workers
// and checks transport-level invariants only (no lost/duplicated answers,
// no races); accuracy assertions live in the deterministic test above.
func TestConcurrentDriveTransport(t *testing.T) {
	rng := stats.NewRNG(7)
	pool := testPool(rng, 80)
	_, srv, client := newServed(t, pool, nil, nil)
	workers := crowd.NewPopulation(rng, 20, crowd.RegimeMixed)

	var wg sync.WaitGroup
	errCh := make(chan error, len(workers))
	for _, w := range workers {
		wg.Add(1)
		go func(w core.Worker) {
			defer wg.Done()
			if _, err := client.DriveWorker(w, pool.Task, 30); err != nil {
				errCh <- err
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	st, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	// 20 workers x 30 tasks = 600 possible; pool holds 80 tasks so every
	// worker can do 30; all submissions must be recorded exactly once.
	if st.TotalAnswers != 600 {
		t.Fatalf("answers = %d, want 600", st.TotalAnswers)
	}
	// No task may exceed one answer per worker.
	served := flat(srv.cpool)
	for _, id := range served.TaskIDs() {
		seen := map[string]bool{}
		for _, a := range served.Answers(id) {
			if seen[a.Worker] {
				t.Fatalf("task %d has duplicate answers from %s", id, a.Worker)
			}
			seen[a.Worker] = true
		}
	}
}

// TestDuplicateAnswerDoesNotSpendBudget is the regression test for the
// charge-before-record leak: a submission the pool rejects (duplicate
// worker, unknown task) must not consume budget.
func TestDuplicateAnswerDoesNotSpendBudget(t *testing.T) {
	rng := stats.NewRNG(10)
	pool := testPool(rng, 3)
	budget := core.NewBudget(10)
	_, client := newTestServer(t, pool, budget, nil)

	d, ok, err := client.FetchTask("w1")
	if err != nil || !ok {
		t.Fatalf("FetchTask: %v %v", ok, err)
	}
	if err := client.SubmitAnswer(AnswerDTO{Task: d.ID, Worker: "w1", Option: 1}); err != nil {
		t.Fatal(err)
	}
	if got := budget.Spent(); got != 1 {
		t.Fatalf("accepted answer spent %v, want 1", got)
	}
	// Duplicate submission: rejected, and the reserved unit is refunded.
	if err := client.SubmitAnswer(AnswerDTO{Task: d.ID, Worker: "w1", Option: 0}); err == nil {
		t.Fatal("duplicate answer should be rejected")
	}
	if got := budget.Spent(); got != 1 {
		t.Fatalf("rejected duplicate leaked budget: spent = %v, want 1", got)
	}
	// Unknown task: rejected before any charge.
	if err := client.SubmitAnswer(AnswerDTO{Task: 999, Worker: "w1", Option: 0}); err == nil {
		t.Fatal("unknown task should be rejected")
	}
	if got := budget.Spent(); got != 1 {
		t.Fatalf("unknown-task answer leaked budget: spent = %v, want 1", got)
	}
	st, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.BudgetSpent != 1 {
		t.Fatalf("stats budget = %v, want 1", st.BudgetSpent)
	}
}

// TestResultsEmptyIsArray pins the wire format: with no choice-type tasks
// the results endpoint returns the JSON array [], never null.
func TestResultsEmptyIsArray(t *testing.T) {
	pool := core.NewPool()
	pool.MustAdd(&core.Task{Kind: core.FillIn, Question: "free text only"})
	ts, _ := newTestServer(t, pool, nil, nil)

	resp, err := http.Get(ts.URL + "/api/results")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.TrimSpace(string(body)); got != "[]" {
		t.Fatalf("empty results body = %q, want []", got)
	}
}

// TestResultsCacheInvalidation checks both halves of the caching
// contract: identical polls reuse the memoized inference, and a new
// answer invalidates it so results never go stale.
func TestResultsCacheInvalidation(t *testing.T) {
	pool := core.NewPool()
	id := pool.MustAdd(&core.Task{
		ID: 1, Kind: core.SingleChoice,
		Question: "?", Options: []string{"no", "yes"}, GroundTruth: 1,
	})
	srv, err := New(pool, assign.FewestAnswers{}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	client := NewClient(ts.URL)

	if err := client.SubmitAnswer(AnswerDTO{Task: id, Worker: "w1", Option: 1}); err != nil {
		t.Fatal(err)
	}
	r1, err := client.Results("mv")
	if err != nil {
		t.Fatal(err)
	}
	if len(r1) != 1 || r1[0].Label != 1 {
		t.Fatalf("results = %+v", r1)
	}
	if srv.memo.len() != 1 {
		t.Fatalf("cache entries = %d, want 1", srv.memo.len())
	}
	// Second poll without new answers: served from cache, same payload.
	r2, err := client.Results("mv")
	if err != nil {
		t.Fatal(err)
	}
	if len(r2) != 1 || r2[0].Label != r1[0].Label || r2[0].Confidence != r1[0].Confidence {
		t.Fatalf("cached poll diverged: %+v vs %+v", r1, r2)
	}
	// Two fresh dissenters flip the majority; the poll after them must
	// reflect the new answers, not the cached inference.
	for _, w := range []string{"w2", "w3"} {
		if err := client.SubmitAnswer(AnswerDTO{Task: id, Worker: w, Option: 0}); err != nil {
			t.Fatal(err)
		}
	}
	r3, err := client.Results("mv")
	if err != nil {
		t.Fatal(err)
	}
	if len(r3) != 1 || r3[0].Label != 0 {
		t.Fatalf("stale results after invalidation: %+v", r3)
	}
}
