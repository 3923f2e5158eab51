package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"syscall"
	"testing"
	"time"
)

func TestTailPercentile(t *testing.T) {
	// The tail is the highest percentile with at least ten samples beyond it.
	for _, tc := range []struct {
		n    int
		want string
	}{
		{5, "max"}, {12, "max"}, {39, "max"}, {40, "p75"}, {99, "p75"},
		{100, "p90"}, {199, "p90"}, {200, "p95"}, {999, "p95"}, {25000, "p95"},
	} {
		if got, _ := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %s, want %s", tc.n, got, tc.want)
		}
	}
	samples := make([]float64, 200)
	for i := range samples {
		samples[i] = float64(i + 1)
	}
	s := summarize(samples)
	if s.N != 200 || s.P50 != 100 || s.TailName != "p95" || s.Tail != 190 || s.Min != 1 || s.Max != 200 {
		t.Errorf("summarize(1..200) = %+v", s)
	}
	if s := summarize([]float64{3, 1, 2}); s.TailName != "max" || s.Tail != 3 || s.P50 != 2 {
		t.Errorf("summarize of three samples = %+v", s)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(v, n=4) for these inputs, computed with Python.
	for _, tc := range []struct {
		v          []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 30, 20}, 10, 20, 30},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
	} {
		q1, q2, q3 := quartiles(tc.v)
		if q1 != tc.q1 || q2 != tc.q2 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.v, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
}

func TestScheduleDeterminism(t *testing.T) {
	a := poissonSchedule(newRNG(7), 5000, 1000)
	b := poissonSchedule(newRNG(7), 5000, 1000)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two different schedules")
	}
	if c := poissonSchedule(newRNG(8), 5000, 1000); reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same schedule")
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] {
			t.Fatalf("schedule goes backwards at %d", i)
		}
	}
	// 5000 arrivals at 1000/s take about 5 s.
	if end := a[len(a)-1].Seconds(); end < 4.5 || end > 5.5 {
		t.Errorf("5000 arrivals at 1000/s end at %.2f s", end)
	}
	// Inputs that depend on (seed, task, worker) do not depend on order.
	if answerFor(1, 17, "w3", 0.2) != answerFor(1, 17, "w3", 0.2) {
		t.Error("answerFor is not a function of its arguments")
	}
	flipped := 0
	for task := 1; task <= 10000; task++ {
		if answerFor(1, task, "w", 0.2) != truthOf(task) {
			flipped++
		}
	}
	if flipped < 1800 || flipped > 2200 {
		t.Errorf("flip_p 0.2 flipped %d of 10000 answers", flipped)
	}
}

func TestSelfTimes(t *testing.T) {
	span := func(id, parent string, start, dur float64) spanDTO {
		return spanDTO{SpanID: id, ParentID: parent, Name: id, StartMS: start, DurationMS: dur}
	}
	for _, tc := range []struct {
		name  string
		spans []spanDTO
		want  map[string]float64
	}{
		{"no children", []spanDTO{span("r", "", 0, 10)}, map[string]float64{"r": 10}},
		{"disjoint children", []spanDTO{span("r", "", 0, 10), span("a", "r", 1, 2), span("b", "r", 5, 3)},
			map[string]float64{"r": 5, "a": 2, "b": 3}},
		{"overlapping children are subtracted once", []spanDTO{span("r", "", 0, 10), span("a", "r", 1, 4), span("b", "r", 3, 4)},
			map[string]float64{"r": 4, "a": 4, "b": 4}},
		{"a child inside another child", []spanDTO{span("r", "", 0, 10), span("a", "r", 1, 8), span("b", "r", 2, 1)},
			map[string]float64{"r": 2, "a": 8, "b": 1}},
		{"a child sticking out is clipped", []spanDTO{span("r", "", 0, 10), span("a", "r", 8, 5)},
			map[string]float64{"r": 8, "a": 5}},
		{"a missing parent reduces nobody", []spanDTO{span("r", "", 0, 10), span("a", "gone", 1, 4)},
			map[string]float64{"r": 10, "a": 4}},
		{"grandchildren count against their parent only", []spanDTO{span("r", "", 0, 10), span("a", "r", 1, 6), span("g", "a", 2, 3)},
			map[string]float64{"r": 4, "a": 3, "g": 3}},
	} {
		got := selfTimes(tc.spans)
		for id, want := range tc.want {
			if math.Abs(got[id]-want) > 1e-9 {
				t.Errorf("%s: self time of %s = %v, want %v", tc.name, id, got[id], want)
			}
		}
	}
}

func TestPromDelta(t *testing.T) {
	before := parseProm([]byte(`# HELP crowdkit_wal_records_total records
# TYPE crowdkit_wal_records_total counter
crowdkit_wal_records_total 100
crowdkit_http_requests_total{code="2xx",endpoint="/api/task"} 7
crowdkit_http_requests_total{code="4xx",endpoint="/api/task"} 1
crowdkit_wal_fsync_seconds_bucket{le="0.001"} 10
crowdkit_wal_fsync_seconds_bucket{le="0.002"} 10
crowdkit_wal_fsync_seconds_bucket{le="+Inf"} 10
crowdkit_wal_fsync_seconds_sum 0.005
crowdkit_wal_fsync_seconds_count 10
not a sample line
`))
	after := parseProm([]byte(`crowdkit_wal_records_total 350
crowdkit_http_requests_total{code="2xx",endpoint="/api/task"} 107
crowdkit_http_requests_total{code="4xx",endpoint="/api/task"} 1
crowdkit_http_requests_total{code="2xx",endpoint="/api/answer"} 50
crowdkit_wal_fsync_seconds_bucket{le="0.001"} 60
crowdkit_wal_fsync_seconds_bucket{le="0.002"} 110
crowdkit_wal_fsync_seconds_bucket{le="+Inf"} 110
crowdkit_wal_fsync_seconds_sum 0.155
crowdkit_wal_fsync_seconds_count 110
`))
	d := after.delta(before)
	for _, tc := range []struct {
		name string
		got  float64
		want float64
	}{
		{"plain counter", d.sum("crowdkit_wal_records_total"), 250},
		{"labelled, one series", d.sum("crowdkit_http_requests_total", `endpoint="/api/task"`, `code="2xx"`), 100},
		{"labelled, summed over codes", d.sum("crowdkit_http_requests_total", `endpoint="/api/task"`), 100},
		{"a series new in the second scrape counts from zero", d.sum("crowdkit_http_requests_total", `endpoint="/api/answer"`), 50},
		{"a name that is only a prefix does not match", d.sum("crowdkit_wal_records"), 0},
		{"histogram mean", d.histMean("crowdkit_wal_fsync_seconds"), 0.0015},
		// 100 observations: 50 up to 1 ms, 50 between 1 and 2 ms.
		{"histogram median", d.histQuantile(0.5, "crowdkit_wal_fsync_seconds"), 0.001},
		{"histogram p75, interpolated", d.histQuantile(0.75, "crowdkit_wal_fsync_seconds"), 0.0015},
		{"empty histogram", d.histQuantile(0.5, "crowdkit_nothing_seconds"), 0},
	} {
		if math.Abs(tc.got-tc.want) > 1e-12 {
			t.Errorf("%s = %v, want %v", tc.name, tc.got, tc.want)
		}
	}
}

func TestJudge(t *testing.T) {
	for _, tc := range []struct {
		name  string
		a, b  []float64
		lower bool
		bound float64
		want  string
	}{
		{"steady, equal", []float64{100, 101, 99}, []float64{100, 100.5, 99.5}, true, 0.1, same},
		{"steady, slower than the bound", []float64{100, 101, 99}, []float64{120, 121, 119}, true, 0.1, worse},
		{"steady, slower within the bound", []float64{100, 101, 99}, []float64{105, 106, 104}, true, 0.1, same},
		{"every run better", []float64{100, 101, 99}, []float64{80, 81, 79}, true, 0.1, better},
		{"noisy sides overlap", []float64{100, 140, 70}, []float64{105, 150, 72}, true, 0.1, unresolved},
		{"noisy but separated", []float64{100, 140, 90}, []float64{50, 70, 45}, true, 0.1, better},
		{"throughput down", []float64{2000, 2010, 1990}, []float64{1500, 1510, 1490}, false, 0.1, worse},
		{"throughput up", []float64{2000, 2010, 1990}, []float64{2500, 2510, 2490}, false, 0.1, better},
		{"single reports, within the bound", []float64{100}, []float64{104}, true, 0.1, same},
		{"single reports, beyond the bound", []float64{100}, []float64{115}, true, 0.1, worse},
		{"exact count moved", []float64{124.5, 124.5, 124.5}, []float64{130, 130, 130}, true, 0.01, worse},
	} {
		if got, _ := judge(tc.a, tc.b, tc.lower, tc.bound); got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestPacingBacklog(t *testing.T) {
	var pc pacing
	for i := 0; i < 100; i++ {
		pc.add(0.1, i/10) // the queue deepens as the schedule goes on
	}
	if before, end := pc.backlog(); before != 7 || end != 9 {
		t.Errorf("backlog = %d then %d, want 7 then 9", before, end)
	}
	pc.add(-1, 0) // a connection that was busy adds no lateness sample
	if len(pc.lateMS) != 100 {
		t.Errorf("%d lateness samples, want 100", len(pc.lateMS))
	}
}

func TestCompareReports(t *testing.T) {
	sp := &spec{EndToEnd: []specMetric{{"op_p50_ms", "ms", "lower", 0.1}}}
	mk := func(v float64, failed int64, kernel string) *report {
		return &report{Env: fingerprint{Commit: fmt.Sprint(v), Kernel: kernel}, Runs: []*result{{
			Workload: "worker_loop", Failed: failed, Digest: "d",
			Metrics: map[string]metric{"op_p50_ms": {v, "ms"}},
		}}}
	}
	var out bytes.Buffer
	if code := compareSets(&out, sp, []*report{mk(1, 0, "k"), mk(1.01, 0, "k"), mk(0.99, 0, "k")}, []*report{mk(1.02, 0, "k"), mk(1, 0, "k"), mk(1.01, 0, "k")}); code != 0 {
		t.Errorf("equal sets: exit %d\n%s", code, out.String())
	}
	if strings.Contains(out.String(), "warning") {
		t.Errorf("commits alone differ, yet a warning:\n%s", out.String())
	}
	out.Reset()
	if code := compareSets(&out, sp, []*report{mk(1, 0, "k")}, []*report{mk(1.5, 0, "k2")}); code == 0 || !strings.Contains(out.String(), worse) {
		t.Errorf("50%% slower: exit %d\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "environments differ in Kernel") {
		t.Errorf("no fingerprint warning:\n%s", out.String())
	}
	out.Reset()
	if code := compareSets(&out, sp, []*report{mk(1, 0, "k")}, []*report{mk(1, 3, "k")}); code == 0 {
		t.Errorf("more failures: exit %d\n%s", code, out.String())
	}
}

func TestDriverLine(t *testing.T) {
	res := &result{Workload: "w", Attempted: 10, Metrics: map[string]metric{"op_p50_ms": {1.5, "ms"}, "x.layer": {2, "us"}}}
	line, err := driverLine(res, []specMetric{{Name: "op_p50_ms", Unit: "ms"}}, false)
	if err != nil || line != `{"correct":true,"attempted":10,"failed":0,"metrics":{"op_p50_ms":{"value":1.5,"unit":"ms"}}}` {
		t.Errorf("line %s, err %v", line, err)
	}
	if _, err := driverLine(res, []specMetric{{Name: "missing_ms", Unit: "ms"}}, false); err == nil {
		t.Error("a missing end-to-end metric must be an error")
	}
	line, err = driverLine(res, []specMetric{{Name: "x.layer", Unit: "us"}, {Name: "cql.idle", Unit: "ms"}}, true)
	if err != nil || !strings.Contains(line, `"cql.idle":{"value":0,"unit":"ms"}`) {
		t.Errorf("an idle layer reads 0: %s, %v", line, err)
	}
	if _, err := driverLine(res, []specMetric{{Name: "op_p50_ms", Unit: "s"}}, false); err == nil {
		t.Error("a unit that disagrees with BENCHMARK.json must be an error")
	}
}

// repoRoot is the repository this package sits in.
func repoRoot(t *testing.T) string {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	return root
}

func TestSpecCoversEveryMetric(t *testing.T) {
	sp, err := loadSpec(repoRoot(t))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(sp.Workloads), len(workloads); got != want {
		t.Errorf("BENCHMARK.json names %d workloads, loadgen has %d", got, want)
	}
	for _, w := range sp.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json names workload %q, loadgen has none", w.Name)
		}
	}
	src := ""
	files, _ := filepath.Glob("*.go") // a constant pattern cannot be malformed
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		src += string(data)
	}
	for _, m := range append(append([]specMetric(nil), sp.EndToEnd...), sp.PerLayer...) {
		base := m.Name
		for _, suffix := range []string{"_p50", "_p95", "_mean"} {
			base = strings.TrimSuffix(base, suffix)
		}
		if !strings.Contains(src, `"`+m.Name+`"`) && !strings.Contains(src, `"`+base+`"`) {
			t.Errorf("BENCHMARK.json names %s, which no loadgen file records", m.Name)
		}
	}
}

// TestSmoke runs every workload at 1/20 scale against the real binary,
// untraced and traced, with all output checks; then a run whose workers
// answer against the expectation, which must exit non-zero; then checks
// that cleanup leaves no child and no directory behind.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts crowdserve child processes")
	}
	root := repoRoot(t)
	if code := run([]string{"-root", root, "-smoke", "-seed", "7"}); code != 0 {
		t.Fatalf("smoke exited %d", code)
	}

	sp, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	p, err := loadParams(root)
	if err != nil {
		t.Fatal(err)
	}
	e, err := newEnv(root)
	if err != nil {
		t.Fatal(err)
	}
	defer e.cleanup()
	wrong := *p
	wrong.Setups = 1
	wrong.WorkerLoop.FlipP = 0.9 // the workers now mostly contradict the planted labels
	b := &bench{env: e, spec: sp, params: &wrong, seed: 7, seconds: p.ReferenceSeconds, size: 0.05}
	if code := b.single("worker_loop", false, ""); code == 0 {
		t.Error("a run whose labels miss the expectation exited 0")
	}

	dir, err := e.tempDir("leak")
	if err != nil {
		t.Fatal(err)
	}
	c, err := e.start([]string{"-tasks", "5", "-data-dir", dir}, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := waitHealthy(c, time.Millisecond, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	pid, logPath := c.pid(), c.logPath
	e.cleanup()
	if err := syscall.Kill(pid, 0); err == nil {
		t.Errorf("child %d survived cleanup", pid)
	}
	for _, path := range []string{dir, logPath} {
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Errorf("%s survived cleanup", path)
		}
	}
}
