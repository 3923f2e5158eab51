package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

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

// TestResultsThunderingHerd is the memo's contract: M concurrent pollers
// racing a version bump trigger exactly one EM run per (method, k,
// version), and all of them see the same complete result.
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
	// testPool has one option-count group and the version holds still
	// during the herd: the priming poll runs EM once, the herd once.
	if runs := snap[`crowdkit_em_runs_total{method="OneCoinEM"}`]; runs != 2 {
		t.Fatalf("em runs = %v, want 2 (priming + one for the herd)", runs)
	}
	if built := snap["crowdkit_results_delta_builds_total"] + snap["crowdkit_results_full_builds_total"]; built != 2 {
		t.Fatalf("dataset builds = %v, want 2", built)
	}
}

// resultsConfidenceTol is how far a served confidence may sit from a cold
// inference over the same answers: the bound README states for
// /api/results. Warm-started EM stops within the EM tolerance (1e-6 on the
// summed posterior change) of the fixed point it shares with a cold start,
// not on the same bits; on this test's workload the largest gap is 3.4e-5
// (GLAD; DS 5.6e-7, OneCoin 2.3e-7, MV 0).
const resultsConfidenceTol = 1e-4

// resultsMethods is every method /api/results serves.
var resultsMethods = []string{"mv", "onecoin", "ds", "glad"}

// coldInferrer is a method's kernel with no warm start and no observer.
func coldInferrer(method string) truth.Inferrer {
	switch method {
	case "onecoin":
		return truth.OneCoinEM{}
	case "ds":
		return truth.DawidSkene{}
	case "glad":
		return truth.GLAD{}
	}
	return truth.MajorityVote{}
}

// coldGroup is one option-count inference group rebuilt from scratch over
// the server's current state: its tasks in the served order and a full
// truth.FromPool dataset over them.
type coldGroup struct {
	k     int
	ids   []core.TaskID
	tasks []*core.Task
	ds    *truth.Dataset
}

func coldGroups(t *testing.T, srv *Server) []coldGroup {
	t.Helper()
	var out []coldGroup
	srv.cpool.ViewAll(func(pools []*core.Pool) {
		view := shardView(pools)
		byK := map[int]*coldGroup{}
		var ks []int
		for _, id := range core.TaskIDsOf(pools) {
			task := view.Task(id)
			k := len(task.Options)
			g := byK[k]
			if g == nil {
				g = &coldGroup{k: k}
				byK[k] = g
				ks = append(ks, k)
			}
			g.ids = append(g.ids, id)
			g.tasks = append(g.tasks, task)
		}
		sort.Ints(ks)
		for _, k := range ks {
			g := byK[k]
			ds, err := truth.FromPool(view, g.ids)
			if err != nil {
				t.Fatal(err)
			}
			g.ds = ds
			out = append(out, *g)
		}
	})
	return out
}

// coldResults is /api/results recomputed from scratch over the server's
// current state: one truth.FromPool over each option-count group, in the
// served task order, and a cold Infer.
func coldResults(t *testing.T, srv *Server, method string) []ResultDTO {
	t.Helper()
	var out []ResultDTO
	for _, g := range coldGroups(t, srv) {
		res, err := coldInferrer(method).Infer(g.ds)
		if err != nil {
			t.Fatal(err)
		}
		for i, id := range g.ids {
			lbl := res.Label(id)
			out = append(out, ResultDTO{Task: id, Label: lbl, Option: g.tasks[i].Options[lbl], Confidence: res.Confidence(id)})
		}
	}
	return out
}

// TestResultsWarmOffMatchesBaseline: with the warm start set aside, the
// incremental path is exact. After every ingest round and for every
// method, a cold inference over the dataset the server grew by appending
// deltas gives the same labels and the same confidence bits as one over a
// full FromPool build; the rounds after the first really take the delta
// path; and the mv body, which carries no warm state, is byte-identical to
// the baseline's encoding.
func TestResultsWarmOffMatchesBaseline(t *testing.T) {
	reg := obs.NewRegistry()
	srv, err := New(testPool(stats.NewRNG(9), 24), assign.FewestAnswers{}, nil, nil,
		WithShards(testShards()), WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	client := NewClient(ts.URL)

	for round := 0; round < 4; round++ {
		ingestRound(t, client, round, 3, 24)
		for _, method := range resultsMethods {
			code, body, _ := getResults(t, ts.URL, method)
			if code != http.StatusOK {
				t.Fatalf("round %d method %s: status %d", round, method, code)
			}
			if method == "mv" {
				var want bytes.Buffer
				if err := json.NewEncoder(&want).Encode(coldResults(t, srv, method)); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(body, want.Bytes()) {
					t.Fatalf("round %d: served mv body differs from the baseline:\n%s\n%s", round, body, want.Bytes())
				}
			}
			for _, g := range coldGroups(t, srv) {
				e, ok := srv.memo.latest(memoKey{method: method, k: g.k})
				if !ok || e.ds == nil {
					t.Fatalf("round %d method %s k %d: no cached dataset", round, method, g.k)
				}
				got, err := coldInferrer(method).Infer(e.ds)
				if err != nil {
					t.Fatal(err)
				}
				want, err := coldInferrer(method).Infer(g.ds)
				if err != nil {
					t.Fatal(err)
				}
				for _, id := range g.ids {
					if got.Label(id) != want.Label(id) ||
						math.Float64bits(got.Confidence(id)) != math.Float64bits(want.Confidence(id)) {
						t.Fatalf("round %d method %s task %d: served dataset infers (%d, %v), full build (%d, %v)",
							round, method, id, got.Label(id), got.Confidence(id), want.Label(id), want.Confidence(id))
					}
				}
			}
		}
	}
	if n := reg.Snapshot()["crowdkit_results_delta_builds_total"]; n == 0 {
		t.Fatal("no dataset was built by appending a delta")
	}
}

// TestResultsWarmMatchesColdLabels pins the /api/results contract now that
// warm starts and the delta path are always on: after every ingest round
// and for every method, the served body equals a cold FromPool + Infer
// over the server's own state — tasks, labels and options exactly,
// confidence within resultsConfidenceTol.
func TestResultsWarmMatchesColdLabels(t *testing.T) {
	srv, err := New(testPool(stats.NewRNG(9), 24), assign.FewestAnswers{}, nil, nil, WithShards(testShards()))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	client := NewClient(ts.URL)

	worst := 0.0
	for round := 0; round < 4; round++ {
		ingestRound(t, client, round, 3, 24)
		for _, method := range resultsMethods {
			served, err := client.Results(method)
			if err != nil {
				t.Fatal(err)
			}
			cold := coldResults(t, srv, method)
			if len(served) != len(cold) {
				t.Fatalf("round %d method %s: %d results served, %d cold", round, method, len(served), len(cold))
			}
			for i, c := range cold {
				got := served[i]
				if got.Task != c.Task || got.Label != c.Label || got.Option != c.Option {
					t.Fatalf("round %d method %s: served %+v, cold %+v", round, method, got, c)
				}
				d := math.Abs(got.Confidence - c.Confidence)
				worst = max(worst, d)
				if d > resultsConfidenceTol {
					t.Errorf("round %d method %s task %d: confidence %v, cold %v (|Δ| = %.3g > %g)",
						round, method, c.Task, got.Confidence, c.Confidence, d, resultsConfidenceTol)
				}
			}
		}
	}
	t.Logf("largest served-vs-cold confidence gap: %.3g", worst)
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
// DTO, a string or a map read per task. Under the race detector the render
// still runs but the counts are not checked (see raceEnabled).
func TestWriteResultsAllocsIndependentOfTaskCount(t *testing.T) {
	render := func(nTasks int) float64 {
		groups := handBuiltGroup(t, nTasks, 0.25)
		return testing.AllocsPerRun(20, func() {
			writeResults(discardWriter{h: http.Header{}}, nil, groups, 7)
		})
	}
	small, large := render(200), render(2000)
	t.Logf("allocations per render: %.0f at 200 tasks, %.0f at 2000", small, large)
	if raceEnabled {
		// quote's json.Marshal gets its encoder state from a sync.Pool,
		// which the race detector makes miss at random.
		t.Skip("allocation counts are checked only without the race detector")
	}
	if small != large || large > 16 {
		t.Fatalf("render allocates %.0f times at 200 tasks and %.0f at 2000; want equal and <= 16", small, large)
	}
}
