package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/assign"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/stats"
)

// TestConcurrentLoadMixed hammers every endpoint at once — many answering
// workers, a budget, golden screening, plus stats and results pollers —
// and checks the accounting invariants afterwards. Run under -race it
// locks in the thread-safety guarantees of the serving layer.
func TestConcurrentLoadMixed(t *testing.T) {
	rng := stats.NewRNG(11)
	const tasks, workers, perWorker = 60, 12, 25
	pool := testPool(rng, tasks)
	budget := core.NewBudget(tasks * workers) // ample, but finite
	screen := core.NewWorkerScreen(1000, 0.1) // active code path, never fires
	srv, err := New(pool, assign.FewestAnswers{}, budget, screen, WithShards(testShards()))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	client := NewClient(ts.URL)

	var wg sync.WaitGroup
	errCh := make(chan error, workers+2)

	// Answering workers: fetch a task, submit, repeat. Each also throws in
	// a duplicate submission to exercise the refund path under load.
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			worker := fmt.Sprintf("load-%d", w)
			for i := 0; i < perWorker; i++ {
				d, ok, err := client.FetchTask(worker)
				if err != nil {
					errCh <- err
					return
				}
				if !ok {
					return
				}
				if err := client.SubmitAnswer(AnswerDTO{Task: d.ID, Worker: worker, Option: i % 2}); err != nil {
					errCh <- err
					return
				}
				// Duplicate: must be rejected and must refund its unit.
				if err := client.SubmitAnswer(AnswerDTO{Task: d.ID, Worker: worker, Option: 0}); err == nil {
					errCh <- fmt.Errorf("duplicate answer accepted for task %d", d.ID)
					return
				}
			}
		}(w)
	}

	// Readers: poll stats and results while the writes are in flight.
	done := make(chan struct{})
	for _, poll := range []func() error{
		func() error { _, err := client.Stats(); return err },
		func() error { _, err := client.Results("mv"); return err },
	} {
		wg.Add(1)
		go func(poll func() error) {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
					if err := poll(); err != nil {
						errCh <- err
						return
					}
				}
			}
		}(poll)
	}

	// Wait for the writers, then stop the pollers.
	writersDone := make(chan struct{})
	go func() {
		defer close(writersDone)
		wg.Wait()
	}()
	// Closing done only after writers finish requires splitting the wait;
	// simplest is a second WaitGroup pass: signal once all answers landed.
	<-awaitAnswers(client, workers*perWorker, errCh)
	close(done)
	<-writersDone
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	st, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	want := workers * perWorker
	if st.TotalAnswers != want {
		t.Fatalf("answers = %d, want %d", st.TotalAnswers, want)
	}
	// Every accepted answer cost exactly one unit; every rejected
	// duplicate was refunded.
	if st.BudgetSpent != int64(want) {
		t.Fatalf("budget spent = %v, want %v (refund leak under load)", st.BudgetSpent, want)
	}
	// One answer per worker per task survived the concurrency. Read via
	// the server's pool: the seed pool only seeded it.
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

// awaitAnswers closes the returned channel once the server reports the
// target answer count (or reports an error).
func awaitAnswers(client *Client, target int, errCh chan<- error) <-chan struct{} {
	ch := make(chan struct{})
	go func() {
		defer close(ch)
		for {
			st, err := client.Stats()
			if err != nil {
				errCh <- err
				return
			}
			if st.TotalAnswers >= target {
				return
			}
		}
	}()
	return ch
}

// serialHandler reproduces the pre-concurrency design for benchmarking:
// one global mutex around the whole request, the way the server behaved
// when core.Pool and core.Budget were single-threaded, and no results
// memo (the server's is emptied before every /api/results, so EM re-runs
// on every poll).
type serialHandler struct {
	mu  sync.Mutex
	srv *Server
}

func (sh *serialHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if r.URL.Path == "/api/results" {
		sh.srv.memo.slots = nil
	}
	sh.srv.ServeHTTP(w, r)
}

// benchIteration is one simulated platform interaction: a fresh worker
// fetches its assignment and submits an answer; every 16th interaction
// polls stats, and every 8th runs a short requester-dashboard burst of
// result polls (auto-refresh reads between answer arrivals).
func benchIteration(tb testing.TB, h http.Handler, seq int64) {
	worker := fmt.Sprintf("bw-%d", seq)
	req := httptest.NewRequest("GET", "/api/task?worker="+worker, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code == http.StatusOK {
		var dto TaskDTO
		if err := json.NewDecoder(rec.Body).Decode(&dto); err != nil {
			tb.Fatal(err)
		}
		body, _ := json.Marshal(AnswerDTO{Task: dto.ID, Worker: worker, Option: int(seq % 2)})
		req = httptest.NewRequest("POST", "/api/answer", bytes.NewReader(body))
		rec = httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			tb.Fatalf("answer rejected: %d %s", rec.Code, rec.Body.String())
		}
	}
	if seq%16 == 0 {
		rec = httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/api/stats", nil))
		if rec.Code != http.StatusOK {
			tb.Fatalf("stats failed: %d", rec.Code)
		}
	}
	if seq%8 == 0 {
		for i := 0; i < 3; i++ {
			rec = httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("GET", "/api/results?method=onecoin", nil))
			if rec.Code != http.StatusOK {
				tb.Fatalf("results failed: %d %s", rec.Code, rec.Body.String())
			}
		}
	}
}

// benchServer drives the mixed load from `workers` goroutines. legacy
// selects the pre-concurrency server behavior: every request behind one
// global mutex and no results memoization (EM re-runs on every poll).
// Extra options (e.g. WithMetrics) are applied to the server under test.
func benchServer(b *testing.B, legacy bool, workers int, opts ...Option) {
	rng := stats.NewRNG(12)
	pool := testPool(rng, 256)
	srv, err := New(pool, assign.FewestAnswers{}, nil, nil, opts...)
	if err != nil {
		b.Fatal(err)
	}
	var h http.Handler = srv
	if legacy {
		h = &serialHandler{srv: srv}
	}
	var seq atomic.Int64
	per := b.N/workers + 1
	b.ResetTimer()
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				benchIteration(b, h, seq.Add(1))
			}
		}()
	}
	wg.Wait()
}

// BenchmarkServerConcurrent quantifies the serving-layer rework at
// increasing worker parallelism. The "globalmutex" runs reproduce the old
// design (requests serialized by one mutex, results recomputed per poll);
// the "finegrained" runs are the shipped server (RWMutex pool, atomic
// budget, version-keyed results cache). The cache win shows at any core
// count; the lock-granularity win additionally scales with GOMAXPROCS.
func BenchmarkServerConcurrent(b *testing.B) {
	for _, workers := range []int{1, 8, 32} {
		b.Run(fmt.Sprintf("globalmutex/workers=%d", workers), func(b *testing.B) {
			benchServer(b, true, workers)
		})
		b.Run(fmt.Sprintf("finegrained/workers=%d", workers), func(b *testing.B) {
			benchServer(b, false, workers)
		})
		// Same server with the full observability layer on: per-request
		// tracing, status counters, and latency histograms. The acceptance
		// bar for the instrumentation is staying within a few percent of
		// the uninstrumented finegrained runs.
		b.Run(fmt.Sprintf("metrics/workers=%d", workers), func(b *testing.B) {
			benchServer(b, false, workers, WithMetrics(obs.NewRegistry()))
		})
		// The sharded pool: one shard per core. At 1 worker it should sit
		// within noise of finegrained (routing is a hash and a slice
		// index); under parallel load it removes the single-RWMutex
		// bottleneck from the answer path.
		b.Run(fmt.Sprintf("sharded/workers=%d", workers), func(b *testing.B) {
			benchServer(b, false, workers, WithShards(runtime.GOMAXPROCS(0)))
		})
		// The span flight recorder sampling every request. finegrained is
		// the tracing-off baseline; the gap between these two runs is the
		// full recording cost, and finegrained itself must stay where it
		// was before tracing existed (nil-collector fast path).
		b.Run(fmt.Sprintf("tracing/workers=%d", workers), func(b *testing.B) {
			benchServer(b, false, workers, WithTracing(obs.NewCollector(obs.CollectorOptions{})))
		})
	}
}

// BenchmarkResultsPoll measures the /api/results fast path: "cached"
// polls an unchanged pool (version-keyed memoization, no EM), while
// "invalidated" records a fresh answer before every poll, forcing a full
// re-inference each time. "ingest" is shaped like the results_poll
// workload of cmd/loadgen, minus the sockets: 5,000 binary tasks on two
// shards holding 50,000 answers from ten workers, 50 more answers batched
// in before every poll (a new worker every 5,000), method=onecoin; the
// timer runs only while polling.
func BenchmarkResultsPoll(b *testing.B) {
	setup := func(b *testing.B) *Server {
		rng := stats.NewRNG(13)
		pool := testPool(rng, 100)
		srv, err := New(pool, assign.FewestAnswers{}, nil, nil)
		if err != nil {
			b.Fatal(err)
		}
		for w := 0; w < 7; w++ {
			for _, id := range pool.TaskIDs() {
				a := core.Answer{Task: id, Worker: fmt.Sprintf("w%d", w), Option: rng.Intn(2)}
				body, _ := json.Marshal(AnswerDTO{Task: a.Task, Worker: a.Worker, Option: a.Option})
				rec := httptest.NewRecorder()
				srv.ServeHTTP(rec, httptest.NewRequest("POST", "/api/answer", bytes.NewReader(body)))
				if rec.Code != http.StatusOK {
					b.Fatalf("seed answer rejected: %d", rec.Code)
				}
			}
		}
		return srv
	}
	poll := func(b *testing.B, srv *Server) {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest("GET", "/api/results?method=ds", nil))
		if rec.Code != http.StatusOK {
			b.Fatalf("results failed: %d %s", rec.Code, rec.Body.String())
		}
	}
	b.Run("ingest", func(b *testing.B) {
		const tasks, preload, perPoll = 5000, 50000, 50
		srv, err := New(testPool(stats.NewRNG(13), tasks), assign.FewestAnswers{}, nil, nil, WithShards(2))
		if err != nil {
			b.Fatal(err)
		}
		sent := 0
		ingest := func(n int) {
			batch := make([]AnswerDTO, n)
			for i := range batch {
				k := sent + i
				task := k%tasks + 1
				opt := task % 2
				if (uint64(k)*0x9e3779b97f4a7c15)>>61 == 0 {
					opt = 1 - opt // one answer in eight disagrees
				}
				batch[i] = AnswerDTO{Task: core.TaskID(task), Worker: fmt.Sprintf("w%d", k/tasks), Option: opt}
			}
			sent += n
			body, _ := json.Marshal(batch)
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, httptest.NewRequest("POST", "/api/answers", bytes.NewReader(body)))
			if rec.Code != http.StatusOK {
				b.Fatalf("batch rejected: %d %s", rec.Code, rec.Body.String())
			}
		}
		poll := func() {
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, httptest.NewRequest("GET", "/api/results?method=onecoin", nil))
			if rec.Code != http.StatusOK {
				b.Fatalf("results failed: %d %s", rec.Code, rec.Body.String())
			}
		}
		for sent < preload {
			ingest(500)
		}
		poll() // the cold build and EM run belong to set-up
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			ingest(perPoll)
			b.StartTimer()
			poll()
		}
	})
	b.Run("cached", func(b *testing.B) {
		srv := setup(b)
		poll(b, srv) // warm the cache
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			poll(b, srv)
		}
	})
	b.Run("invalidated", func(b *testing.B) {
		srv := setup(b)
		ids := flat(srv.cpool).TaskIDs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			w := fmt.Sprintf("inv-%d", i)
			body, _ := json.Marshal(AnswerDTO{Task: ids[i%len(ids)], Worker: w, Option: i % 2})
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, httptest.NewRequest("POST", "/api/answer", bytes.NewReader(body)))
			if rec.Code != http.StatusOK {
				b.Fatalf("answer rejected: %d", rec.Code)
			}
			poll(b, srv)
		}
	})
}
