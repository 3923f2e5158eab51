package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/assign"
	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/stats"
)

// newShardServer wires a server with an explicit shard count (ignoring the
// CROWDKIT_TEST_SHARDS override, which newTestServer honors).
func newShardServer(t *testing.T, pool *core.Pool, budget *core.Budget, screen *core.WorkerScreen, shards int) (*httptest.Server, *Client) {
	t.Helper()
	srv, err := New(pool, assign.FewestAnswers{}, budget, screen, WithShards(shards))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts, NewClient(ts.URL)
}

// getBody fetches a URL and returns the raw response bytes, for the
// byte-identical equivalence checks.
func getBody(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: HTTP %d: %s", url, resp.StatusCode, body)
	}
	return body
}

// The sharding acceptance test: the same task set and the same submission
// script must produce byte-identical /api/stats and /api/results responses
// whether the pool runs on one shard or is split across several.
func TestShardEquivalence(t *testing.T) {
	const (
		tasks   = 40
		workers = 5
		seed    = 77
	)
	submit := func(t *testing.T, client *Client) {
		rng := stats.NewRNG(seed + 1)
		for id := core.TaskID(1); id <= tasks; id++ {
			for w := 0; w < workers; w++ {
				err := client.SubmitAnswer(AnswerDTO{
					Task: id, Worker: fmt.Sprintf("w%d", w), Option: rng.Intn(2),
				})
				if err != nil {
					t.Fatalf("task %d worker %d: %v", id, w, err)
				}
			}
		}
	}

	ts1, client1 := newShardServer(t, testPool(stats.NewRNG(seed), tasks), nil, nil, 1)
	submit(t, client1)
	for _, n := range []int{2, 4, 8} {
		tsN, clientN := newShardServer(t, testPool(stats.NewRNG(seed), tasks), nil, nil, n)
		submit(t, clientN)
		for _, path := range []string{
			"/api/stats", "/api/results?method=mv", "/api/results?method=ds",
		} {
			got := getBody(t, tsN.URL+path)
			want := getBody(t, ts1.URL+path)
			if !bytes.Equal(got, want) {
				t.Errorf("shards=%d: %s diverged from shards=1:\n got: %s\nwant: %s",
					n, path, got, want)
			}
		}
	}
}

// Batch ingestion: items succeed and fail independently, statuses come
// back in request order, and only recorded items spend budget.
func TestBatchAnswers(t *testing.T) {
	rng := stats.NewRNG(21)
	pool := testPool(rng, 8)
	budget := core.NewBudget(100)
	_, client := newTestServer(t, pool, budget, nil)

	res, err := client.SubmitAnswers([]AnswerDTO{
		{Task: 1, Worker: "a", Option: 1},
		{Task: 2, Worker: "a", Option: 0},
		{Task: 1, Worker: "b", Option: 1},
		{Task: 1, Worker: "a", Option: 0},   // duplicate of item 0
		{Task: 999, Worker: "a", Option: 1}, // unknown task
		{Task: 3, Worker: "", Option: 1},    // missing worker
		{Task: 3, Worker: "b", Option: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	wantStatus := []string{
		batchRecorded, batchRecorded, batchRecorded,
		batchRejected, batchRejected, batchRejected,
		batchRecorded,
	}
	if len(res.Results) != len(wantStatus) {
		t.Fatalf("got %d results, want %d", len(res.Results), len(wantStatus))
	}
	for i, want := range wantStatus {
		if res.Results[i].Status != want {
			t.Errorf("item %d: status %q (%s), want %q",
				i, res.Results[i].Status, res.Results[i].Error, want)
		}
	}
	if res.Recorded != 4 || res.Rejected != 3 {
		t.Fatalf("recorded/rejected = %d/%d, want 4/3", res.Recorded, res.Rejected)
	}
	if budget.Spent() != 4 {
		t.Fatalf("budget spent %v, want 4 (only recorded items pay)", budget.Spent())
	}
	st, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.TotalAnswers != 4 {
		t.Fatalf("total answers %d, want 4", st.TotalAnswers)
	}

	// A batch that outruns the budget records only what it can pay for.
	budget2 := core.NewBudget(2)
	_, client2 := newTestServer(t, testPool(stats.NewRNG(22), 8), budget2, nil)
	res, err = client2.SubmitAnswers([]AnswerDTO{
		{Task: 1, Worker: "a", Option: 1},
		{Task: 2, Worker: "a", Option: 1},
		{Task: 3, Worker: "a", Option: 1},
		{Task: 4, Worker: "a", Option: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Recorded != 2 || res.Rejected != 2 {
		t.Fatalf("over-budget batch: recorded/rejected = %d/%d, want 2/2", res.Recorded, res.Rejected)
	}
	if budget2.Spent() != 2 {
		t.Fatalf("over-budget batch spent %v, want 2", budget2.Spent())
	}
}

// Batch request bounds: too many items is a 413, not a truncated accept.
func TestBatchItemCap(t *testing.T) {
	ts, _ := newTestServer(t, testPool(stats.NewRNG(23), 1), nil, nil)
	batch := make([]AnswerDTO, maxBatchItems+1)
	for i := range batch {
		batch[i] = AnswerDTO{Task: 1, Worker: fmt.Sprintf("w%d", i), Option: 1}
	}
	body, _ := json.Marshal(batch)
	resp, err := http.Post(ts.URL+"/api/answers", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized batch: HTTP %d, want 413", resp.StatusCode)
	}
}

// Regression for the resubmission-cap bugfix: before it, a worker could
// resubmit the same MultiChoice task without limit, each accepted answer
// draining one budget unit. Now submissions beyond core.MaxRepeatAnswers
// are rejected with 409 and spend nothing.
func TestResubmissionBudgetDrain(t *testing.T) {
	pool := core.NewPool()
	pool.MustAdd(&core.Task{
		ID: 1, Kind: core.MultiChoice,
		Question: "pick any", Options: []string{"a", "b", "c"},
		GroundTruth: -1,
	})
	budget := core.NewBudget(1000)
	_, client := newTestServer(t, pool, budget, nil)

	for i := 0; i < core.MaxRepeatAnswers; i++ {
		if err := client.SubmitAnswer(AnswerDTO{Task: 1, Worker: "grinder", Option: i % 3}); err != nil {
			t.Fatalf("submission %d under the cap rejected: %v", i, err)
		}
	}
	for i := 0; i < 5; i++ {
		err := client.SubmitAnswer(AnswerDTO{Task: 1, Worker: "grinder", Option: 0})
		var apiErr *APIError
		if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusConflict {
			t.Fatalf("submission beyond the cap: err = %v, want HTTP 409", err)
		}
	}
	if spent := budget.Spent(); spent != core.MaxRepeatAnswers {
		t.Fatalf("budget spent %v, want %d: rejected resubmissions drained budget",
			spent, core.MaxRepeatAnswers)
	}
	// Another worker still has the full cap available.
	if err := client.SubmitAnswer(AnswerDTO{Task: 1, Worker: "other", Option: 1}); err != nil {
		t.Fatalf("other worker blocked by grinder's cap: %v", err)
	}
}

// Regression for the journal-failure divergence bugfix: when the store
// refuses an answer, the 500 used to leave the answer recorded in memory
// with its budget charge and golden observation — memory ran ahead of disk
// until the next restart silently dropped the answer. An answer is now
// appended before it is applied, so a 500 means "never happened".
func TestJournalFailureRollsBack(t *testing.T) {
	dir := t.TempDir()
	store, info, err := durable.Open(dir, durable.Options{Fsync: durable.FsyncNever, Segments: testShards()})
	if err != nil {
		t.Fatal(err)
	}
	if !info.Empty() {
		t.Fatalf("expected empty data dir, got %+v", info)
	}
	budget := core.NewBudget(100)
	screen := core.NewWorkerScreen(2, 0.9)
	srv, err := New(goldenPool(6, 1), assign.FewestAnswers{}, budget, screen,
		WithShards(testShards()), WithDurability(store))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	client := NewClient(ts.URL, WithRetry(-1, 0, 0))

	// One healthy submission, then kill the store underneath the server.
	if err := client.SubmitAnswer(AnswerDTO{Task: 1, Worker: "w", Option: 1}); err != nil {
		t.Fatal(err)
	}
	before, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	store.Crash()

	// Two wrong golden answers after the crash: both must come back 500,
	// and neither may stick — not the answer, not the budget charge, and
	// not the golden observation (two misses would eliminate the worker).
	for _, task := range []core.TaskID{2, 3} {
		err := client.SubmitAnswer(AnswerDTO{Task: task, Worker: "w", Option: 0})
		var apiErr *APIError
		if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusInternalServerError {
			t.Fatalf("submission after store crash: err = %v, want HTTP 500", err)
		}
	}
	// A failed batch rolls back the same way.
	if _, err := client.SubmitAnswers([]AnswerDTO{
		{Task: 4, Worker: "w", Option: 0},
		{Task: 5, Worker: "w", Option: 0},
	}); err == nil {
		t.Fatal("batch after store crash should fail")
	}

	after, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if *after != *before {
		t.Fatalf("failed submissions mutated serving state:\nbefore %+v\nafter  %+v", before, after)
	}
	if budget.Spent() != 1 {
		t.Fatalf("budget spent %v, want 1 (only the acknowledged answer pays)", budget.Spent())
	}
	if screen.Eliminated("w") {
		t.Fatal("rolled-back golden observations eliminated the worker")
	}
}

// Regression for the handleTask nil-dereference: an assigner handing out a
// task id the pool does not hold must produce a 503, not a panic in the
// handler goroutine.
func TestTaskVanishNilGuard(t *testing.T) {
	pool := testPool(stats.NewRNG(31), 1)
	vanish := core.AssignerFunc(func(p *core.Pool, worker string) (core.TaskID, bool) {
		return 999, true // a task the pool has never heard of
	})
	srv, err := New(pool, vanish, nil, nil, WithShards(testShards()))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	resp, err := http.Get(ts.URL + "/api/task?worker=w")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("vanished task: HTTP %d, want 503", resp.StatusCode)
	}
}

// A sharded durable server survives a restart: answers land on several
// WAL segments and recovery merges them back into the same serving state.
func TestShardedDurableRestart(t *testing.T) {
	const shards = 4
	dir := t.TempDir()
	store, info, err := durable.Open(dir, durable.Options{Fsync: durable.FsyncNever, Segments: shards})
	if err != nil {
		t.Fatal(err)
	}
	if !info.Empty() {
		t.Fatalf("expected empty dir, got %+v", info)
	}
	budget := core.Unlimited()
	srv, err := New(testPool(stats.NewRNG(41), 16), assign.FewestAnswers{}, budget, nil,
		WithShards(shards), WithDurability(store), WithLeaseTTL(time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	client := NewClient(ts.URL)

	var batch []AnswerDTO
	for id := core.TaskID(1); id <= 16; id++ {
		for w := 0; w < 3; w++ {
			batch = append(batch, AnswerDTO{Task: id, Worker: fmt.Sprintf("w%d", w), Option: 1})
		}
	}
	res, err := client.SubmitAnswers(batch)
	if err != nil {
		t.Fatal(err)
	}
	if res.Recorded != len(batch) {
		t.Fatalf("recorded %d of %d batch answers", res.Recorded, len(batch))
	}
	ts.Close()
	srv.Close()

	store2, info2, err := durable.Open(dir, durable.Options{Fsync: durable.FsyncNever, Segments: shards})
	if err != nil {
		t.Fatal(err)
	}
	if info2.Empty() {
		t.Fatal("recovery found nothing")
	}
	budget2 := core.Unlimited()
	srv2, err := New(nil, assign.FewestAnswers{}, budget2, nil,
		WithShards(shards), WithDurability(store2))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv2.Close)
	ts2 := httptest.NewServer(srv2)
	t.Cleanup(ts2.Close)

	st, err := NewClient(ts2.URL).Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.TotalAnswers != len(batch) {
		t.Fatalf("recovered %d answers, want %d", st.TotalAnswers, len(batch))
	}
	if st.BudgetSpent != int64(len(batch)) {
		t.Fatalf("recovered budget %v, want %d", st.BudgetSpent, len(batch))
	}
}
