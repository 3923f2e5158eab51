package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/assign"
	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/stats"
)

// --- serving-path bugfix regressions ---------------------------------------

func goldenPool(n int, truth int) *core.Pool {
	pool := core.NewPool()
	for i := 0; i < n; i++ {
		pool.MustAdd(&core.Task{
			ID: core.TaskID(i + 1), Kind: core.SingleChoice,
			Question: "golden?", Options: []string{"no", "yes"},
			Golden: true, GroundTruth: truth,
		})
	}
	return pool
}

// An eliminated worker must be refused on the answer path, not only on the
// assignment path: before the fix, a worker could keep POSTing answers
// (and spending budget) after failing the golden screen.
func TestEliminatedWorkerCannotSubmitAnswers(t *testing.T) {
	pool := goldenPool(3, 1)
	budget := core.NewBudget(100)
	screen := core.NewWorkerScreen(2, 0.9)
	_, srv, client := newServed(t, pool, budget, screen)

	// Two golden misses eliminate the worker.
	for id := core.TaskID(1); id <= 2; id++ {
		if err := client.SubmitAnswer(AnswerDTO{Task: id, Worker: "bad", Option: 0}); err != nil {
			t.Fatal(err)
		}
	}
	if !screen.Eliminated("bad") {
		t.Fatal("worker should be eliminated after two golden misses")
	}
	spent := budget.Spent()

	err := client.SubmitAnswer(AnswerDTO{Task: 3, Worker: "bad", Option: 1})
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusForbidden {
		t.Fatalf("eliminated worker's answer: err = %v, want HTTP 403", err)
	}
	if n := srv.cpool.AnswerCount(3); n != 0 {
		t.Fatalf("eliminated worker's answer was recorded (%d answers)", n)
	}
	if budget.Spent() != spent {
		t.Fatalf("rejected answer moved budget: %v -> %v", spent, budget.Spent())
	}
	// A clean worker is still fine.
	if err := client.SubmitAnswer(AnswerDTO{Task: 3, Worker: "good", Option: 1}); err != nil {
		t.Fatal(err)
	}
}

// The answer body is bounded: a payload over the limit gets 413 instead of
// being buffered wholesale by the JSON decoder.
func TestAnswerBodyBounded(t *testing.T) {
	rng := stats.NewRNG(3)
	ts, _ := newTestServer(t, testPool(rng, 1), nil, nil)

	huge := fmt.Sprintf(`{"task":1,"worker":"w","text":%q}`, strings.Repeat("A", maxAnswerBody+1024))
	resp, err := http.Post(ts.URL+"/api/answer", "application/json", strings.NewReader(huge))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: HTTP %d, want 413", resp.StatusCode)
	}

	// Garbage under the limit is still a plain 400.
	resp, err = http.Post(ts.URL+"/api/answer", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body: HTTP %d, want 400", resp.StatusCode)
	}

	// A maximal legitimate submission still works.
	if resp, err = http.Post(ts.URL+"/api/answer", "application/json",
		strings.NewReader(`{"task":1,"worker":"w","option":1}`)); err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("normal body: HTTP %d, want 200", resp.StatusCode)
	}
}

// --- crash-recovery acceptance ---------------------------------------------

// ackTracker is a RoundTripper that remembers every answer the server
// acknowledged with 200, and fires crashFn while request number crashAt is
// in flight — so the crash lands mid-load with other submissions racing.
type ackTracker struct {
	base    http.RoundTripper
	crashAt int
	crashFn func()

	mu    sync.Mutex
	acked []AnswerDTO
}

func (a *ackTracker) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Method != http.MethodPost || !strings.HasSuffix(req.URL.Path, "/api/answer") {
		return a.base.RoundTrip(req)
	}
	body, err := io.ReadAll(req.Body)
	if err != nil {
		return nil, err
	}
	req.Body = io.NopCloser(bytes.NewReader(body))
	resp, err := a.base.RoundTrip(req)
	if err != nil || resp.StatusCode != http.StatusOK {
		return resp, err
	}
	var dto AnswerDTO
	if jErr := json.Unmarshal(body, &dto); jErr != nil {
		return resp, err
	}
	a.mu.Lock()
	a.acked = append(a.acked, dto)
	n := len(a.acked)
	a.mu.Unlock()
	if n == a.crashAt && a.crashFn != nil {
		a.crashFn()
	}
	return resp, err
}

func (a *ackTracker) ackedAnswers() []AnswerDTO {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]AnswerDTO(nil), a.acked...)
}

// driveUntilFailure runs workers concurrently against the server until the
// pool is drained or the server starts failing (post-crash 500s).
func driveUntilFailure(t *testing.T, client *Client, workers int) {
	t.Helper()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			name := fmt.Sprintf("w%d", w)
			for {
				dto, ok, err := client.FetchTask(name)
				if err != nil || !ok {
					return
				}
				if err := client.SubmitAnswer(AnswerDTO{Task: dto.ID, Worker: name, Option: 1}); err != nil {
					var apiErr *APIError
					if errors.As(err, &apiErr) && apiErr.StatusCode == http.StatusConflict {
						continue // lost a race; keep working
					}
					return // durability failure or transport error: this worker stops
				}
			}
		}(w)
	}
	wg.Wait()
}

// seededServer opens a durable store in dir, seeds nTasks, and wires a
// server with durability (and leases) on. rngSeed fixes the task set so a
// control pool can be rebuilt identically.
func seededServer(t *testing.T, dir string, rngSeed uint64, nTasks int) (*Server, *durable.Store, *core.Budget) {
	t.Helper()
	store, info, err := durable.Open(dir, durable.Options{Fsync: durable.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	if !info.Empty() {
		t.Fatalf("expected empty data dir, recovered %+v", info)
	}
	budget := core.Unlimited()
	srv, err := New(testPool(stats.NewRNG(rngSeed), nTasks), assign.FewestAnswers{}, budget, nil,
		WithDurability(store), WithLeaseTTL(30*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	return srv, store, budget
}

// recoveredServer reopens dir and builds a server over the recovered
// state, returning the served pool for direct inspection.
func recoveredServer(t *testing.T, dir string) (*Client, *core.ShardedPool, *core.Budget, *durable.RecoveryInfo) {
	t.Helper()
	store, info, err := durable.Open(dir, durable.Options{Fsync: durable.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	budget := core.Unlimited()
	srv, err := New(nil, assign.FewestAnswers{}, budget, nil, WithDurability(store))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(func() { ts.Close(); srv.Close() })
	return NewClient(ts.URL), store.Pool(), budget, info
}

// The acceptance test for the durability tentpole: kill the store mid-load
// (the in-process equivalent of kill -9 at the durability boundary),
// restart from the same directory, and require that every acknowledged
// answer — and nothing else — survived, with the budget agreeing.
func TestCrashRecoveryLosesNoAckedAnswers(t *testing.T) {
	const (
		rngSeed = 7
		nTasks  = 40
		workers = 8
		crashAt = 100
	)
	dir := t.TempDir()
	srv, store, _ := seededServer(t, dir, rngSeed, nTasks)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Close()

	tracker := &ackTracker{
		base:    http.DefaultTransport,
		crashAt: crashAt,
		crashFn: store.Crash,
	}
	client := NewClient(ts.URL, WithRetry(-1, 0, 0))
	client.HTTP = &http.Client{Transport: tracker, Timeout: 10 * time.Second}

	driveUntilFailure(t, client, workers)
	acked := tracker.ackedAnswers()
	if len(acked) < crashAt {
		t.Fatalf("only %d answers acked; crash at %d never happened", len(acked), crashAt)
	}
	// The drive must have been cut short: with 8 workers x 40 tasks the
	// uncrashed run collects 320 answers.
	if len(acked) >= workers*nTasks {
		t.Fatalf("all %d answers acked; the crash did not interrupt the load", len(acked))
	}

	client2, recovered, budget2, info := recoveredServer(t, dir)
	if info.Empty() {
		t.Fatal("recovery found nothing")
	}

	// Every acked answer is present exactly once, and nothing beyond the
	// acked set was resurrected.
	st, err := client2.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.TotalAnswers != len(acked) {
		t.Fatalf("recovered %d answers, %d were acked", st.TotalAnswers, len(acked))
	}
	type key struct {
		task   core.TaskID
		worker string
	}
	seen := map[key]int{}
	for _, a := range acked {
		seen[key{a.Task, a.Worker}]++
	}
	for k, n := range seen {
		if n != 1 {
			t.Fatalf("answer %+v acked %d times", k, n)
		}
		found := 0
		for _, a := range recovered.Answers(k.task) {
			if a.Worker == k.worker {
				found++
			}
		}
		if found != 1 {
			t.Fatalf("acked answer %+v recovered %d times, want exactly once", k, found)
		}
	}

	// budget_spent equals the acked answer count.
	if budget2.Spent() != int64(len(acked)) {
		t.Fatalf("recovered budget spent = %v, want %d", budget2.Spent(), len(acked))
	}
	if st.BudgetSpent != int64(len(acked)) {
		t.Fatalf("/api/stats budget_spent = %v, want %d", st.BudgetSpent, len(acked))
	}

	// /api/results over the recovered pool agrees with a control server
	// that never crashed: same tasks, same acked answers, no journal.
	_, ctrlClient := newTestServer(t, testPool(stats.NewRNG(rngSeed), nTasks), nil, nil)
	for _, a := range acked {
		if err := ctrlClient.SubmitAnswer(a); err != nil {
			t.Fatalf("control answer %+v: %v", a, err)
		}
	}
	got, err := client2.Results("mv")
	if err != nil {
		t.Fatal(err)
	}
	want, err := ctrlClient.Results("mv")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("recovered results have %d entries, control %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("result %d diverged after recovery: got %+v, want %+v", i, got[i], want[i])
		}
	}

	// The recovered server keeps serving: a fresh worker can still work.
	dto, ok, err := client2.FetchTask("fresh")
	if err != nil || !ok {
		t.Fatalf("recovered server refused an assignment: %v %v", ok, err)
	}
	if err := client2.SubmitAnswer(AnswerDTO{Task: dto.ID, Worker: "fresh", Option: 0}); err != nil {
		t.Fatal(err)
	}
}

// A torn WAL tail — the half-written record of the dying process — must
// not block the next boot: the server recovers everything before the tear
// and keeps serving.
func TestServerRecoversPastTornTail(t *testing.T) {
	dir := t.TempDir()
	srv, store, _ := seededServer(t, dir, 11, 5)
	ts := httptest.NewServer(srv)
	defer srv.Close()
	client := NewClient(ts.URL)
	for i := 0; i < 3; i++ {
		if err := client.SubmitAnswer(AnswerDTO{Task: core.TaskID(i + 1), Worker: "w", Option: 1}); err != nil {
			t.Fatal(err)
		}
	}
	store.Crash()
	ts.Close()

	// Simulate the torn final append of the dying process.
	f, err := os.OpenFile(filepath.Join(dir, "wal.log"), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xde, 0xad, 0xbe}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	client2, _, _, info := recoveredServer(t, dir)
	if info.TornBytes != 3 {
		t.Fatalf("recovery reported %d torn bytes, want 3", info.TornBytes)
	}
	st, err := client2.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.TotalAnswers != 3 {
		t.Fatalf("recovered %d answers past torn tail, want 3", st.TotalAnswers)
	}
	if err := client2.SubmitAnswer(AnswerDTO{Task: 4, Worker: "w", Option: 0}); err != nil {
		t.Fatal(err)
	}
}

// Golden-screen tallies ride the journal: a worker eliminated before the
// crash stays eliminated after recovery.
func TestEliminationSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	store, _, err := durable.Open(dir, durable.Options{Fsync: durable.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	screen := core.NewWorkerScreen(2, 0.9)
	srv, err := New(goldenPool(3, 1), assign.FewestAnswers{}, nil, screen, WithDurability(store))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	client := NewClient(ts.URL)
	for id := core.TaskID(1); id <= 2; id++ {
		if err := client.SubmitAnswer(AnswerDTO{Task: id, Worker: "bad", Option: 0}); err != nil {
			t.Fatal(err)
		}
	}
	store.Crash()
	ts.Close()

	store2, _, err := durable.Open(dir, durable.Options{Fsync: durable.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	screen2 := core.NewWorkerScreen(2, 0.9)
	srv2, err := New(nil, assign.FewestAnswers{}, nil, screen2, WithDurability(store2))
	if err != nil {
		t.Fatal(err)
	}
	if !screen2.Eliminated("bad") {
		t.Fatal("elimination did not survive the restart")
	}
	ts2 := httptest.NewServer(srv2)
	t.Cleanup(func() { ts2.Close(); srv2.Close() })
	err = NewClient(ts2.URL).SubmitAnswer(AnswerDTO{Task: 3, Worker: "bad", Option: 1})
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusForbidden {
		t.Fatalf("recovered server accepted the eliminated worker: %v", err)
	}
}
