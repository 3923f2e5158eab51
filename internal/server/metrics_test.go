package server

import (
	"bytes"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/assign"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/stats"
)

// newObsServer builds a server with the full observability layer on and
// returns it with its registry and client.
func newObsServer(t *testing.T, pool *core.Pool, extra ...Option) (*Server, *obs.Registry, *Client) {
	t.Helper()
	reg := obs.NewRegistry()
	opts := append([]Option{WithMetrics(reg)}, extra...)
	srv, err := New(pool, assign.FewestAnswers{}, nil, nil, opts...)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	t.Cleanup(srv.Close)
	return srv, reg, NewClient(ts.URL)
}

func scrape(t *testing.T, c *Client) string {
	t.Helper()
	resp, err := http.Get(c.BaseURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics returned %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metrics Content-Type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// metricValue extracts one series value from an exposition body.
func metricValue(t *testing.T, body, series string) float64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		if rest, ok := strings.CutPrefix(line, series+" "); ok {
			v, err := strconv.ParseFloat(rest, 64)
			if err != nil {
				t.Fatalf("parsing %q: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("series %q not found in exposition:\n%s", series, body)
	return 0
}

// TestMetricsExposition drives a loaded server end to end — assignments,
// answers, closes, stats, EM inference — and checks that the scrape shows
// per-endpoint request counters and latency histograms, pool/budget
// gauges, and EM convergence telemetry, exactly as the acceptance
// criteria demand.
func TestMetricsExposition(t *testing.T) {
	rng := stats.NewRNG(21)
	pool := testPool(rng, 12)
	srv, _, client := newObsServer(t, pool)

	for w := 0; w < 3; w++ {
		worker := fmt.Sprintf("mw-%d", w)
		for {
			dto, ok, err := client.FetchTask(worker)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			if err := client.SubmitAnswer(AnswerDTO{Task: dto.ID, Worker: worker, Option: int(dto.ID) % 2}); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Two closed tasks leave ten open, in /api/stats and on the gauge.
	for _, id := range pool.TaskIDs()[:2] {
		if err := srv.cpool.Close(id); err != nil {
			t.Fatal(err)
		}
	}
	if st, err := client.Stats(); err != nil {
		t.Fatal(err)
	} else if st.OpenTasks != 10 {
		t.Fatalf("open_tasks = %d after closing 2 of 12, want 10", st.OpenTasks)
	}
	if _, err := client.Results("onecoin"); err != nil {
		t.Fatal(err)
	}

	body := scrape(t, client)
	for _, want := range []string{
		`# TYPE crowdkit_http_requests_total counter`,
		`# TYPE crowdkit_http_request_seconds histogram`,
		`crowdkit_http_requests_total{code="2xx",endpoint="/api/task"}`,
		`crowdkit_http_requests_total{code="2xx",endpoint="/api/answer"}`,
		`crowdkit_http_request_seconds_bucket{endpoint="/api/results",le="+Inf"}`,
		`crowdkit_http_request_seconds_count{endpoint="/api/answer"}`,
		`crowdkit_pool_tasks 12`,
		`crowdkit_pool_open_tasks 10`,
		`crowdkit_pool_answers 36`,
		`crowdkit_budget_spent_units 36`,
		`crowdkit_budget_remaining_units`,
		`crowdkit_pool_active_leases 0`,
		`crowdkit_leases_expired_total 0`,
		`crowdkit_em_runs_total{method="OneCoinEM"} 1`,
		`crowdkit_em_converged_total{method="OneCoinEM"} 1`,
		`crowdkit_em_last_iterations{method="OneCoinEM"}`,
		`crowdkit_em_run_seconds_count{method="OneCoinEM"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	if t.Failed() {
		t.Logf("exposition:\n%s", body)
	}
	// 36 answers went through /api/answer, each as one 2xx.
	if v := metricValue(t, body, `crowdkit_http_requests_total{code="2xx",endpoint="/api/answer"}`); v != 36 {
		t.Fatalf("answer 2xx count = %v, want 36", v)
	}
	// EM iterations observed must match what the run gauge reports.
	iters := metricValue(t, body, `crowdkit_em_last_iterations{method="OneCoinEM"}`)
	total := metricValue(t, body, `crowdkit_em_iterations_total{method="OneCoinEM"}`)
	if iters <= 0 || total != iters {
		t.Fatalf("EM iteration accounting: last=%v total=%v", iters, total)
	}
}

// TestTraceIDHeader checks both directions of trace propagation: the
// server mints a well-formed ID when the client sends none, and adopts
// and echoes a caller-supplied ID verbatim.
func TestTraceIDHeader(t *testing.T) {
	rng := stats.NewRNG(22)
	_, _, client := newObsServer(t, testPool(rng, 3))

	resp, err := http.Get(client.BaseURL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	minted := resp.Header.Get(TraceHeader)
	if !regexp.MustCompile(`^[0-9a-f]{16}$`).MatchString(minted) {
		t.Fatalf("minted trace ID %q is not 16 hex chars", minted)
	}

	req, _ := http.NewRequest("GET", client.BaseURL+"/healthz", nil)
	req.Header.Set(TraceHeader, "cafebabe00000001")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get(TraceHeader); got != "cafebabe00000001" {
		t.Fatalf("supplied trace ID not echoed: got %q", got)
	}
}

// TestObservabilityOffByDefault pins the opt-in contract: without
// WithMetrics there is no /metrics endpoint, no trace header, and no
// pprof mount.
func TestObservabilityOffByDefault(t *testing.T) {
	rng := stats.NewRNG(23)
	_, client := newTestServer(t, testPool(rng, 3), nil, nil)
	for _, path := range []string{"/metrics", "/debug/pprof/"} {
		resp, err := http.Get(client.BaseURL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s on bare server = %d, want 404", path, resp.StatusCode)
		}
	}
	resp, err := http.Get(client.BaseURL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if h := resp.Header.Get(TraceHeader); h != "" {
		t.Fatalf("bare server set %s: %q", TraceHeader, h)
	}
}

// TestPprofOptIn: WithPprof mounts the profile index; the index responds.
func TestPprofOptIn(t *testing.T) {
	rng := stats.NewRNG(24)
	_, _, client := newObsServer(t, testPool(rng, 3), WithPprof())
	resp, err := http.Get(client.BaseURL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof index = %d", resp.StatusCode)
	}
	if !bytes.Contains(body, []byte("goroutine")) {
		t.Fatalf("pprof index does not list profiles:\n%s", body)
	}
}

// TestExpiredLeaseAccountingConsistent drops a lease, lets it expire, and
// checks that /api/stats and /metrics report the same reclaim count from
// the single shared counter.
func TestExpiredLeaseAccountingConsistent(t *testing.T) {
	rng := stats.NewRNG(25)
	_, _, client := newObsServer(t, testPool(rng, 4),
		WithLeaseTTL(20*time.Millisecond), WithReaperInterval(10*time.Millisecond))

	if _, ok, err := client.FetchTask("ghost"); err != nil || !ok {
		t.Fatalf("fetch: ok=%v err=%v", ok, err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		st, err := client.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if st.ExpiredLeases > 0 {
			body := scrape(t, client)
			if v := metricValue(t, body, "crowdkit_leases_expired_total"); int64(v) != st.ExpiredLeases {
				t.Fatalf("stats says %d expired, metrics says %v", st.ExpiredLeases, v)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("lease never expired")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestRequestLogCarriesTraceID: with WithRequestLog, each request emits
// one structured record whose trace field matches the echoed header.
func TestRequestLogCarriesTraceID(t *testing.T) {
	rng := stats.NewRNG(26)
	var buf bytes.Buffer
	var mu syncWriter
	mu.w = &buf
	logger := slog.New(slog.NewTextHandler(&mu, nil))
	_, _, client := newObsServer(t, testPool(rng, 3), WithRequestLog(logger))

	req, _ := http.NewRequest("GET", client.BaseURL+"/api/stats", nil)
	req.Header.Set(TraceHeader, "feedface00000002")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	mu.mu.Lock()
	out := buf.String()
	mu.mu.Unlock()
	if !strings.Contains(out, "trace=feedface00000002") {
		t.Fatalf("request log missing trace ID:\n%s", out)
	}
	if !strings.Contains(out, "path=/api/stats") || !strings.Contains(out, "status=200") {
		t.Fatalf("request log missing fields:\n%s", out)
	}
}

// abandonWorker claims one task and walks away.
type abandonWorker struct{ id string }

func (w abandonWorker) ID() string { return w.id }
func (w abandonWorker) Work(*core.Task) core.Response {
	return core.Response{Abandon: true}
}

// TestClientTerminationCounters distinguishes the three DriveWorker exit
// modes by their counters: clean abandon, consecutive-conflict failure,
// and retry exhaustion.
func TestClientTerminationCounters(t *testing.T) {
	t.Run("abandon", func(t *testing.T) {
		rng := stats.NewRNG(27)
		_, client := newTestServer(t, testPool(rng, 3), nil, nil)
		done, err := client.DriveWorker(abandonWorker{id: "quitter"}, nil, 0)
		if err != nil || done != 0 {
			t.Fatalf("abandon drive: done=%d err=%v", done, err)
		}
		if v := client.Metrics.Abandons.Value(); v != 1 {
			t.Fatalf("Abandons = %d, want 1", v)
		}
		if v := client.Metrics.ConflictExhausted.Value(); v != 0 {
			t.Fatalf("ConflictExhausted = %d, want 0", v)
		}
	})

	t.Run("conflict-exhausted", func(t *testing.T) {
		// A platform that hands out tasks but rejects every submission:
		// DriveWorker must give up after maxConsecutiveConflicts and count
		// the failure mode.
		mux := http.NewServeMux()
		mux.HandleFunc("GET /api/task", func(w http.ResponseWriter, r *http.Request) {
			writeJSON(w, TaskDTO{ID: 1, Kind: "single_choice", Question: "q", Options: []string{"a", "b"}})
		})
		mux.HandleFunc("POST /api/answer", func(w http.ResponseWriter, r *http.Request) {
			io.Copy(io.Discard, r.Body)
			httpError(w, http.StatusConflict, "rejected")
		})
		ts := httptest.NewServer(mux)
		defer ts.Close()
		client := NewClient(ts.URL)
		_, err := client.DriveWorker(abandonlessWorker{id: "victim"}, nil, 0)
		if err == nil {
			t.Fatal("drive against always-409 platform should fail")
		}
		if v := client.Metrics.ConflictExhausted.Value(); v != 1 {
			t.Fatalf("ConflictExhausted = %d, want 1", v)
		}
		if v := client.Metrics.Conflicts.Value(); v != maxConsecutiveConflicts {
			t.Fatalf("Conflicts = %d, want %d", v, maxConsecutiveConflicts)
		}
		if v := client.Metrics.Abandons.Value(); v != 0 {
			t.Fatalf("Abandons = %d, want 0", v)
		}
	})

	t.Run("retry-exhausted", func(t *testing.T) {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			httpError(w, http.StatusInternalServerError, "down")
		}))
		defer ts.Close()
		client := NewClient(ts.URL, WithRetry(2, time.Millisecond, 2*time.Millisecond))
		_, err := client.DriveWorker(abandonlessWorker{id: "victim"}, nil, 0)
		if err == nil {
			t.Fatal("drive against always-500 platform should fail")
		}
		if v := client.Metrics.RetryExhausted.Value(); v != 1 {
			t.Fatalf("RetryExhausted = %d, want 1", v)
		}
		if v := client.Metrics.Retries.Value(); v != 2 {
			t.Fatalf("Retries = %d, want 2", v)
		}
	})
}

// abandonlessWorker always answers option 0.
type abandonlessWorker struct{ id string }

func (w abandonlessWorker) ID() string { return w.id }
func (w abandonlessWorker) Work(*core.Task) core.Response {
	return core.Response{Option: 0}
}

// syncWriter serializes writes from handler goroutines to the buffer.
type syncWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (s *syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}
