package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/assign"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/truth"
)

// getResults fetches /api/results raw, returning status, body bytes, and
// the results-version header.
func getResults(t *testing.T, base, method string) (int, []byte, string) {
	t.Helper()
	resp, err := http.Get(base + "/api/results?method=" + method)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body, resp.Header.Get(ResultsVersionHeader)
}

// ingestRound submits one deterministic batch of answers (round r, nw
// workers over the first nt tasks) through the batch endpoint.
func ingestRound(t *testing.T, client *Client, r, nw, nt int) {
	t.Helper()
	var batch []AnswerDTO
	for w := 0; w < nw; w++ {
		for i := 1; i <= nt; i++ {
			// Mostly-correct answers with deterministic ~20% noise: a
			// consistent majority signal, so EM has a unique stable fixed
			// point (an exactly balanced vote would park cold starts on
			// the symmetric saddle instead).
			opt := i % 2
			h := uint32(r*2654435761) ^ uint32(w*40503) ^ uint32(i*2246822519)
			h ^= h >> 13
			h *= 2654435761
			h ^= h >> 16
			if h%5 == 0 {
				opt = 1 - opt
			}
			batch = append(batch, AnswerDTO{
				Task:   core.TaskID(i),
				Worker: fmt.Sprintf("r%d-w%d", r, w),
				Option: opt,
			})
		}
	}
	ack, err := client.SubmitAnswers(batch)
	if err != nil {
		t.Fatal(err)
	}
	if ack.Rejected != 0 {
		t.Fatalf("round %d: %d answers rejected", r, ack.Rejected)
	}
}

// TestResultsThunderingHerd is the single-flight contract: M concurrent
// pollers racing a version bump trigger at most one EM run per (method,
// k, version), and all of them see the same complete result.
func TestResultsThunderingHerd(t *testing.T) {
	rng := stats.NewRNG(7)
	reg := obs.NewRegistry()
	srv, err := New(testPool(rng, 20), assign.FewestAnswers{}, nil, nil,
		WithShards(testShards()), WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	client := NewClient(ts.URL)

	ingestRound(t, client, 0, 6, 20)
	// First poll: populates the cache (one cold EM run).
	if code, _, _ := getResults(t, ts.URL, "onecoin"); code != http.StatusOK {
		t.Fatalf("priming poll: status %d", code)
	}
	// Version bump, then the herd.
	ingestRound(t, client, 1, 2, 20)

	const herd = 16
	bodies := make([][]byte, herd)
	var wg sync.WaitGroup
	for i := 0; i < herd; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			code, body, _ := getResults(t, ts.URL, "onecoin")
			if code != http.StatusOK {
				t.Errorf("poller %d: status %d", i, code)
			}
			bodies[i] = body
		}(i)
	}
	wg.Wait()
	for i := 1; i < herd; i++ {
		if string(bodies[i]) != string(bodies[0]) {
			t.Fatalf("poller %d saw a different body than poller 0", i)
		}
	}
	snap := reg.Snapshot()
	if runs := snap[`crowdkit_em_runs_total{method="OneCoinEM"}`]; runs > 2 {
		t.Fatalf("em runs = %v, want <= 2 (priming + at most one for the herd)", runs)
	}
	if built := snap["crowdkit_results_delta_builds_total"] + snap["crowdkit_results_full_builds_total"]; built > 2 {
		t.Fatalf("dataset builds = %v, want <= 2", built)
	}
}

// TestResultsWarmOffMatchesBaseline is the regression contract for the
// escape hatches: a warm-off server (delta path still on) must serve
// byte-identical response bodies to a server with both incremental paths
// disabled — the exact code path of the previous release — across an
// interleaved ingest/poll workload and every method.
func TestResultsWarmOffMatchesBaseline(t *testing.T) {
	newSrv := func(opts ...Option) (*httptest.Server, *Client) {
		pool := testPool(stats.NewRNG(9), 24)
		srv, err := New(pool, assign.FewestAnswers{}, nil, nil,
			append([]Option{WithShards(testShards())}, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv)
		t.Cleanup(ts.Close)
		return ts, NewClient(ts.URL)
	}
	tsA, clA := newSrv(WithResultsWarm(false))
	tsB, clB := newSrv(WithResultsWarm(false), WithResultsDelta(false))

	for round := 0; round < 4; round++ {
		ingestRound(t, clA, round, 3, 24)
		ingestRound(t, clB, round, 3, 24)
		for _, method := range []string{"mv", "onecoin", "ds", "glad"} {
			codeA, bodyA, _ := getResults(t, tsA.URL, method)
			codeB, bodyB, _ := getResults(t, tsB.URL, method)
			if codeA != codeB || string(bodyA) != string(bodyB) {
				t.Fatalf("round %d method %s: incremental (%d) and baseline (%d) bodies differ:\n%s\n%s",
					round, method, codeA, codeB, bodyA, bodyB)
			}
		}
	}
}

// TestResultsWarmMatchesColdLabels checks the serving-layer half of the
// warm-vs-cold equivalence: across an interleaved workload, a
// warm-started server infers the same labels (and option strings) as a
// cold-started one for every EM method. Posterior-level equivalence is
// asserted in the experiments suite.
func TestResultsWarmMatchesColdLabels(t *testing.T) {
	newSrv := func(opts ...Option) (*httptest.Server, *Client) {
		pool := testPool(stats.NewRNG(11), 24)
		srv, err := New(pool, assign.FewestAnswers{}, nil, nil,
			append([]Option{WithShards(testShards())}, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv)
		t.Cleanup(ts.Close)
		return ts, NewClient(ts.URL)
	}
	_, clWarm := newSrv()
	_, clCold := newSrv(WithResultsWarm(false))

	for round := 0; round < 4; round++ {
		ingestRound(t, clWarm, round, 3, 24)
		ingestRound(t, clCold, round, 3, 24)
		for _, method := range []string{"onecoin", "ds", "glad"} {
			warm, err := clWarm.Results(method)
			if err != nil {
				t.Fatal(err)
			}
			cold, err := clCold.Results(method)
			if err != nil {
				t.Fatal(err)
			}
			if len(warm) != len(cold) {
				t.Fatalf("round %d method %s: %d vs %d results", round, method, len(warm), len(cold))
			}
			for i := range warm {
				if warm[i].Task != cold[i].Task || warm[i].Label != cold[i].Label || warm[i].Option != cold[i].Option {
					t.Fatalf("round %d method %s: warm %+v != cold %+v", round, method, warm[i], cold[i])
				}
			}
		}
	}
}

// TestResultsVersionHeader: every response carries X-Results-Version, and
// it advances when the pool does.
func TestResultsVersionHeader(t *testing.T) {
	rng := stats.NewRNG(13)
	srv, err := New(testPool(rng, 8), assign.FewestAnswers{}, nil, nil, WithShards(testShards()))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	client := NewClient(ts.URL)

	_, _, v1s := getResults(t, ts.URL, "mv")
	v1, err := strconv.ParseUint(v1s, 10, 64)
	if err != nil {
		t.Fatalf("version header %q: %v", v1s, err)
	}
	ingestRound(t, client, 0, 2, 8)
	_, _, v2s := getResults(t, ts.URL, "mv")
	v2, err := strconv.ParseUint(v2s, 10, 64)
	if err != nil {
		t.Fatalf("version header %q: %v", v2s, err)
	}
	if v2 <= v1 {
		t.Fatalf("version did not advance: %d -> %d", v1, v2)
	}
}

// TestResultsBackgroundRefresh: with -results-refresh on, polls serve the
// last complete result without computing inline, and the background
// refresher catches the cache up to new answers.
func TestResultsBackgroundRefresh(t *testing.T) {
	rng := stats.NewRNG(17)
	reg := obs.NewRegistry()
	srv, err := New(testPool(rng, 12), assign.FewestAnswers{}, nil, nil,
		WithShards(testShards()), WithMetrics(reg), WithResultsRefresh(2*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	client := NewClient(ts.URL)

	ingestRound(t, client, 0, 3, 12)
	// First poll falls through to the inline path (nothing cached yet) and
	// registers the method with the refresher.
	code, _, v1s := getResults(t, ts.URL, "onecoin")
	if code != http.StatusOK {
		t.Fatalf("first poll: status %d", code)
	}
	ingestRound(t, client, 1, 1, 12)

	// The refresher must eventually serve a newer version from cache.
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, _, vs := getResults(t, ts.URL, "onecoin")
		if vs != v1s && vs != "" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("refresher never caught up to the new answers")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if stale := reg.Snapshot()["crowdkit_results_stale_serves_total"]; stale == 0 {
		t.Fatal("no polls were served from the last complete result")
	}
}

// TestResultsEncoderMatchesEncodingJSON is the byte-identity contract of
// the append-based encoder: whatever rows it is fed, the body is exactly
// what json.NewEncoder writes for the same []ResultDTO — string escaping,
// float formatting, separators and the trailing newline included.
func TestResultsEncoderMatchesEncodingJSON(t *testing.T) {
	options := []string{
		"yes", "no", "", `say "hi"`, `back\slash`, "<b>&amp;</b>", "caf\u00e9 \u4e16\u754c \U0001F600",
		"tab\tnewline\ncr\r", "ctl\x01\x1f\x7f", "bad utf8 \xff\xfe", "line\u2028sep\u2029",
	}
	confidences := []float64{
		0, 1, 0.5, 1e-7, 1 - 1e-12, 5e-324, 2.2250738585072014e-308, 1e-6, 9.999999e-7, 0.000001234,
		1e20, 1e21, 1.5e22, 1.7976931348623157e308, 0.1 + 0.2, 1.0 / 3, 0.9999999999999999, math.Copysign(0, -1), -0.25,
	}
	labels := []int{0, 1, 2, -1, 7, 1 << 40}
	rng := stats.NewRNG(99)
	rows := []ResultDTO{}
	check := func() {
		t.Helper()
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(rows); err != nil {
			t.Fatal(err)
		}
		enc := resultsEncoder{buf: []byte{'['}}
		for _, d := range rows {
			if err := enc.add(d); err != nil {
				t.Fatalf("add(%+v): %v", d, err)
			}
		}
		if got := enc.finish(); !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("encoder output differs from encoding/json over %d rows:\n got %q\nwant %q", len(rows), got, want.Bytes())
		}
	}
	check() // the empty list is "[]\n"

	for _, c := range confidences { // every confidence at least once
		rows = append(rows, ResultDTO{Task: core.TaskID(len(rows)), Label: 1, Option: "yes", Confidence: c})
	}
	for _, o := range options { // every option at least once
		rows = append(rows, ResultDTO{Task: core.TaskID(-len(rows)), Label: 0, Option: o, Confidence: 0.75})
	}
	check()
	for i := 0; i < 2000; i++ {
		conf := confidences[rng.Intn(len(confidences))]
		if i%2 == 0 {
			conf = math.Float64frombits(rng.Uint64() >> 2) // any double in [0, 2), subnormals included
		}
		rows = append(rows, ResultDTO{
			Task:       core.TaskID(rng.Intn(1 << 30)),
			Label:      labels[rng.Intn(len(labels))],
			Option:     options[rng.Intn(len(options))],
			Confidence: conf,
		})
	}
	check()

	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		enc := resultsEncoder{buf: []byte{'['}}
		if err := enc.add(ResultDTO{Task: 1, Confidence: bad}); err == nil {
			t.Fatalf("confidence %v must be refused, as encoding/json refuses it", bad)
		}
	}
}

// handBuiltGroup wraps a hand-built Result over nTasks binary tasks, every
// posterior row (conf, 1-conf), as writeResults takes it.
func handBuiltGroup(t *testing.T, nTasks int, conf float64) []*resultGroup {
	t.Helper()
	g := &resultGroup{k: 2}
	post := make([]float64, 0, 2*nTasks)
	for i := 1; i <= nTasks; i++ {
		g.ids = append(g.ids, core.TaskID(i))
		g.tasks = append(g.tasks, &core.Task{ID: core.TaskID(i), Kind: core.SingleChoice, Options: []string{"no", "yes"}})
		post = append(post, conf, 1-conf)
	}
	ds, err := truth.FromAnswers(2, g.ids, nil)
	if err != nil {
		t.Fatal(err)
	}
	g.res = truth.NewResult("hand-built", ds, post, nil, 0)
	return []*resultGroup{g}
}

// TestUnencodableResponseIs500: a value encoding/json refuses used to be
// served as 200 with an empty body, because the encoder's error was
// dropped after the header had gone out. Both writers now encode first.
func TestUnencodableResponseIs500(t *testing.T) {
	for name, write := range map[string]func(w http.ResponseWriter){
		"writeJSON":    func(w http.ResponseWriter) { writeJSON(w, map[string]float64{"confidence": math.NaN()}) },
		"writeResults": func(w http.ResponseWriter) { writeResults(w, nil, handBuiltGroup(t, 3, math.NaN()), 7) },
	} {
		rec := httptest.NewRecorder()
		write(rec)
		var body map[string]string
		if rec.Code != http.StatusInternalServerError || json.Unmarshal(rec.Body.Bytes(), &body) != nil || body["error"] == "" {
			t.Errorf("%s: status %d body %q, want 500 with an error message", name, rec.Code, rec.Body.String())
		}
		if v := rec.Header().Get(ResultsVersionHeader); v != "" {
			t.Errorf("%s: failed response carries %s %q", name, ResultsVersionHeader, v)
		}
	}
	// The same writers, given something encodable, declare their length.
	rec := httptest.NewRecorder()
	writeResults(rec, nil, handBuiltGroup(t, 3, 0.75), 7)
	if rec.Code != http.StatusOK || rec.Header().Get("Content-Length") != strconv.Itoa(rec.Body.Len()) ||
		rec.Header().Get(ResultsVersionHeader) != "7" || strings.Count(rec.Body.String(), `"confidence":0.75`) != 3 {
		t.Errorf("finite result: status %d headers %v body %q", rec.Code, rec.Header(), rec.Body.String())
	}
}

// discardWriter is an http.ResponseWriter that keeps nothing, so the
// allocations counted below are the renderer's own.
type discardWriter struct{ h http.Header }

func (w discardWriter) Header() http.Header         { return w.h }
func (w discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w discardWriter) WriteHeader(int)             {}

// TestWriteResultsAllocsIndependentOfTaskCount: rendering allocates the
// body, the header values and one quoted form per distinct option — not a
// DTO, a string or a map read per task.
func TestWriteResultsAllocsIndependentOfTaskCount(t *testing.T) {
	render := func(nTasks int) float64 {
		groups := handBuiltGroup(t, nTasks, 0.25)
		return testing.AllocsPerRun(20, func() {
			writeResults(discardWriter{h: http.Header{}}, nil, groups, 7)
		})
	}
	small, large := render(200), render(2000)
	t.Logf("allocations per render: %.0f at 200 tasks, %.0f at 2000", small, large)
	if small != large || large > 16 {
		t.Fatalf("render allocates %.0f times at 200 tasks and %.0f at 2000; want equal and <= 16", small, large)
	}
}
