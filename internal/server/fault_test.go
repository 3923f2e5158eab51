package server

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/assign"
	"repro/internal/core"
	"repro/internal/crowd"
	"repro/internal/stats"
)

// newLeaseTestServer wires a lease-enabled server; unlike newTestServer it
// registers srv.Close so the reaper goroutine dies with the test.
func newLeaseTestServer(t *testing.T, pool *core.Pool, budget *core.Budget, opts ...Option) (*httptest.Server, *Client, *Server) {
	t.Helper()
	srv, err := New(pool, assign.FewestAnswers{}, budget, nil,
		append([]Option{WithShards(testShards())}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts, NewClient(ts.URL), srv
}

// TestLeaseReissueAfterDropout is the acceptance scenario for the lease
// machinery: dropout workers claim every slot and vanish without
// submitting; after the TTL the slots are reclaimed and honest workers
// collect full redundancy within the exact budget.
func TestLeaseReissueAfterDropout(t *testing.T) {
	const (
		tasks = 10
		k     = 3 // one answer from each honest worker
		ttl   = 250 * time.Millisecond
	)
	rng := stats.NewRNG(50)
	pool := testPool(rng, tasks)
	budget := core.NewBudget(tasks * k)
	_, client, srv := newLeaseTestServer(t, pool, budget, WithLeaseTTL(ttl))

	// Phase 1: three dropout workers lease every task and never submit.
	for _, w := range []string{"d1", "d2", "d3"} {
		for i := 0; i < tasks; i++ {
			if _, ok, err := client.FetchTask(w); err != nil || !ok {
				t.Fatalf("dropout %s fetch %d: ok=%v err=%v", w, i, ok, err)
			}
		}
	}
	st, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.ActiveLeases != tasks*k {
		t.Fatalf("active leases = %d, want %d (every slot claimed)", st.ActiveLeases, tasks*k)
	}
	if st.TotalAnswers != 0 || st.BudgetSpent != 0 {
		t.Fatalf("dropouts spent budget without answering: %+v", st)
	}

	// Phase 2: let every lease expire, then drive honest workers.
	time.Sleep(2 * ttl)
	for i := 0; i < k; i++ {
		w := crowd.NewWorker(fmt.Sprintf("h%d", i), 4, crowd.Honest, rng)
		// Cap at tasks: an uncapped drive's final fetch would see the
		// exactly-spent budget as a 409 instead of a 204.
		n, err := client.DriveWorker(w, pool.Task, tasks)
		if err != nil {
			t.Fatalf("honest worker %s: %v", w.ID(), err)
		}
		if n != tasks {
			t.Fatalf("honest worker %s answered %d tasks, want %d", w.ID(), n, tasks)
		}
	}

	st, err = client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.ActiveLeases != 0 {
		t.Fatalf("leases outstanding after all submissions: %d", st.ActiveLeases)
	}
	if st.ExpiredLeases != tasks*k {
		t.Fatalf("expired leases = %d, want %d", st.ExpiredLeases, tasks*k)
	}
	if st.BudgetSpent != tasks*k {
		t.Fatalf("budget spent = %v, want %d (only committed answers pay)", st.BudgetSpent, tasks*k)
	}
	srv.Close() // stop the reaper before touching the pool directly
	for _, id := range flat(srv.cpool).TaskIDs() {
		if got := srv.cpool.AnswerCount(id); got != k {
			t.Fatalf("task %d has %d answers, want redundancy %d", id, got, k)
		}
	}
}

// TestLeaseConsumedOnSubmit: the issued -> submitted transition releases
// the lease without the expiry path firing.
func TestLeaseConsumedOnSubmit(t *testing.T) {
	rng := stats.NewRNG(51)
	pool := testPool(rng, 2)
	_, client, srv := newLeaseTestServer(t, pool, nil, WithLeaseTTL(time.Minute))

	dto, ok, err := client.FetchTask("w1")
	if err != nil || !ok {
		t.Fatalf("fetch: ok=%v err=%v", ok, err)
	}
	st, _ := client.Stats()
	if st.ActiveLeases != 1 {
		t.Fatalf("active leases = %d, want 1", st.ActiveLeases)
	}
	if err := client.SubmitAnswer(AnswerDTO{Task: dto.ID, Worker: "w1", Option: 1}); err != nil {
		t.Fatal(err)
	}
	st, _ = client.Stats()
	if st.ActiveLeases != 0 || st.ExpiredLeases != 0 {
		t.Fatalf("submission should consume the lease, not expire it: %+v", st)
	}
	if srv.ExpiredLeases() != 0 {
		t.Fatal("reaper reclaimed a consumed lease")
	}
}

// TestReaperExpiresLeases: reclamation must not depend on /api/task
// traffic — the background reaper alone returns abandoned slots.
func TestReaperExpiresLeases(t *testing.T) {
	rng := stats.NewRNG(52)
	pool := testPool(rng, 1)
	_, client, _ := newLeaseTestServer(t, pool, nil,
		WithLeaseTTL(25*time.Millisecond), WithReaperInterval(10*time.Millisecond))

	if _, ok, err := client.FetchTask("ghost"); err != nil || !ok {
		t.Fatalf("fetch: ok=%v err=%v", ok, err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		// Only /api/stats polls from here on: stats never sweeps leases, so
		// reaching zero proves the reaper did it.
		st, err := client.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if st.ActiveLeases == 0 && st.ExpiredLeases == 1 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("reaper never reclaimed the lease: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestConcurrentChurnReachesRedundancy races honest workers against
// dropout workers that keep claiming leases and walking away. Run under
// -race; the pool must still reach one answer per honest worker per task.
func TestConcurrentChurnReachesRedundancy(t *testing.T) {
	const (
		tasks  = 12
		honest = 4
		churn  = 3 // ~30% more workers, all dropouts
	)
	rng := stats.NewRNG(53)
	pool := testPool(rng, tasks)
	_, client, srv := newLeaseTestServer(t, pool, nil,
		WithLeaseTTL(20*time.Millisecond), WithReaperInterval(10*time.Millisecond))

	var wg sync.WaitGroup
	for i := 0; i < churn; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := fmt.Sprintf("churn%d", i)
			// Claim slots without ever submitting; each claim strands a lease
			// until the reaper reclaims it.
			for j := 0; j < 40; j++ {
				if _, _, err := client.FetchTask(w); err != nil {
					t.Errorf("churn %s: %v", w, err)
					return
				}
				time.Sleep(time.Millisecond)
			}
		}(i)
	}
	errs := make(chan error, honest)
	// Workers are built before the goroutines launch: rng.Split is not safe
	// for concurrent use on one parent stream.
	hws := make([]*crowd.Worker, honest)
	for i := range hws {
		hws[i] = crowd.NewWorker(fmt.Sprintf("h%d", i), 4, crowd.Honest, rng)
	}
	for i := 0; i < honest; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := hws[i]
			did := 0
			deadline := time.Now().Add(10 * time.Second)
			// DriveWorker exits when every open slot is momentarily leased by
			// a churner; keep driving until this worker has covered the pool.
			for did < tasks {
				n, err := client.DriveWorker(w, pool.Task, 0)
				if err != nil {
					errs <- fmt.Errorf("worker %s: %w", w.ID(), err)
					return
				}
				did += n
				if time.Now().After(deadline) {
					errs <- fmt.Errorf("worker %s stuck at %d/%d tasks", w.ID(), did, tasks)
					return
				}
				if n == 0 {
					time.Sleep(2 * time.Millisecond)
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	srv.Close() // stop the reaper before direct pool reads
	for _, id := range flat(srv.cpool).TaskIDs() {
		if got := srv.cpool.AnswerCount(id); got != honest {
			t.Fatalf("task %d has %d answers, want %d", id, got, honest)
		}
	}
	if srv.ExpiredLeases() == 0 {
		t.Fatal("no leases expired; the churners never stranded a slot")
	}
}

// TestClientTimeoutOnStalledServer: a client pointed at a server that
// accepts connections but never responds must give up within its
// configured timeout, not hang.
func TestClientTimeoutOnStalledServer(t *testing.T) {
	stall := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-stall
	}))
	t.Cleanup(func() { close(stall); ts.Close() })

	client := NewClient(ts.URL,
		WithTimeout(100*time.Millisecond),
		WithRetry(1, 10*time.Millisecond, 20*time.Millisecond))
	start := time.Now()
	_, _, err := client.FetchTask("w1")
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("stalled server produced no error")
	}
	// 2 attempts x 100ms + one backoff sleep, with generous slack.
	if elapsed > 2*time.Second {
		t.Fatalf("client took %v against a stalled server", elapsed)
	}
}

// TestClientRetriesOn5xx: transient server failures are retried with
// backoff until an attempt succeeds.
func TestClientRetriesOn5xx(t *testing.T) {
	var attempts atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if attempts.Add(1) <= 2 {
			http.Error(w, `{"error":"transient"}`, http.StatusInternalServerError)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	}))
	t.Cleanup(ts.Close)

	client := NewClient(ts.URL, WithRetry(3, time.Millisecond, 2*time.Millisecond))
	_, ok, err := client.FetchTask("w1")
	if err != nil || ok {
		t.Fatalf("after retries: ok=%v err=%v", ok, err)
	}
	if got := attempts.Load(); got != 3 {
		t.Fatalf("server saw %d attempts, want 3 (2 failures + success)", got)
	}
}

// TestClientDoesNotRetry4xx: rejections are the client's fault and must
// surface immediately — retrying a duplicate answer cannot help.
func TestClientDoesNotRetry4xx(t *testing.T) {
	var attempts atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		attempts.Add(1)
		http.Error(w, `{"error":"no such task"}`, http.StatusNotFound)
	}))
	t.Cleanup(ts.Close)

	client := NewClient(ts.URL, WithRetry(5, time.Millisecond, 2*time.Millisecond))
	_, _, err := client.FetchTask("w1")
	if err == nil {
		t.Fatal("404 should be an error")
	}
	var ae *APIError
	if !errors.As(err, &ae) || ae.StatusCode != http.StatusNotFound || ae.Retryable() {
		t.Fatalf("want non-retryable 404 APIError, got %v", err)
	}
	if got := attempts.Load(); got != 1 {
		t.Fatalf("server saw %d attempts, want exactly 1", got)
	}
}

// TestDriveWorkerConflictCap: a platform that rejects every submission
// must fail the drive loop instead of spinning on fetch/reject forever.
func TestDriveWorkerConflictCap(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /api/task", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, TaskDTO{ID: 1, Kind: "single-choice", Question: "?", Options: []string{"no", "yes"}})
	})
	mux.HandleFunc("POST /api/answer", func(w http.ResponseWriter, r *http.Request) {
		httpError(w, http.StatusConflict, "always conflicted")
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)

	rng := stats.NewRNG(54)
	w := crowd.NewWorker("w1", 3, crowd.Honest, rng)
	client := NewClient(ts.URL, WithRetry(-1, 0, 0))
	done, err := client.DriveWorker(w, nil, 0)
	if err == nil {
		t.Fatal("endless conflicts should surface as an error")
	}
	if done != 0 {
		t.Fatalf("done = %d, want 0", done)
	}
	if !strings.Contains(err.Error(), "consecutive rejected submissions") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// TestDriveWorkerStopsOnAbandon: a dropout worker ends its drive cleanly;
// the claimed lease is left for the server to reclaim.
func TestDriveWorkerStopsOnAbandon(t *testing.T) {
	rng := stats.NewRNG(55)
	pool := testPool(rng, 3)
	_, client, _ := newLeaseTestServer(t, pool, nil, WithLeaseTTL(time.Minute))

	w := crowd.NewDropoutWorker(crowd.NewWorker("w1", 3, crowd.Honest, rng), 1, rng)
	done, err := client.DriveWorker(w, pool.Task, 0)
	if err != nil || done != 0 {
		t.Fatalf("abandoning drive: done=%d err=%v", done, err)
	}
	st, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.ActiveLeases != 1 {
		t.Fatalf("active leases = %d, want the 1 stranded claim", st.ActiveLeases)
	}
}

// TestHealthz: the liveness probe responds on a plain and a lease-enabled
// server.
func TestHealthz(t *testing.T) {
	rng := stats.NewRNG(56)
	_, client := newTestServer(t, testPool(rng, 2), nil, nil)
	if err := client.Health(); err != nil {
		t.Fatalf("healthz on plain server: %v", err)
	}
	_, lclient, _ := newLeaseTestServer(t, testPool(rng, 2), nil, WithLeaseTTL(time.Minute))
	if err := lclient.Health(); err != nil {
		t.Fatalf("healthz on lease server: %v", err)
	}
}

// TestServerCloseIdempotent: Close is safe to call repeatedly and without
// leases enabled.
func TestServerCloseIdempotent(t *testing.T) {
	rng := stats.NewRNG(57)
	srv, err := New(testPool(rng, 1), assign.FewestAnswers{}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv.Close()
	srv.Close()
	lsrv, err := New(testPool(rng, 1), assign.FewestAnswers{}, nil, nil, WithLeaseTTL(time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	lsrv.Close()
	lsrv.Close()
}
