package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net/http"
	"os"
	"strings"
	"time"
)

// metric is one named number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run of one workload, traced or not.
type result struct {
	Workload  string             `json:"workload"`
	Traced    bool               `json:"traced"`
	Seed      uint64             `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Command   string             `json:"command"` // the exact child command line
	Flush     string             `json:"flush"`   // the child's WAL flush policy
	SetupS    []float64          `json:"setup_s"` // every set-up of the run; the metric is their median
	Metrics   map[string]metric  `json:"metrics"`
	Timings   map[string]summary `json:"timings"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Failures  []string           `json:"failures,omitempty"`
	Valid     bool               `json:"valid"`
	Invalid   []string           `json:"invalid,omitempty"`
	Digest    string             `json:"digest"` // hash of the checked outputs; equal inputs give equal digests
}

// workload is one traffic mix. A fresh value serves one set-up (and, for
// the last set-up of a run, the measurement that follows it).
type workload interface {
	// setup starts the child and brings it to the state the measurement
	// starts from; its duration is one setup_s sample.
	setup(x *runCtx) error
	// measure runs the fixed operation count or schedule, checks the
	// outputs, and records metrics.
	measure(x *runCtx) error
	// teardown kills whatever setup started and removes its directory.
	teardown()
}

// workloads are the four traffic mixes; why each exists is recorded in
// BENCHMARK.json and bench/README.md.
var workloads = map[string]func() workload{
	"worker_loop":   func() workload { return &workerLoop{} },
	"results_poll":  func() workload { return &resultsPoll{} },
	"cql_query":     func() workload { return &cqlQuery{} },
	"recovery_boot": func() workload { return &recoveryBoot{} },
}

func workloadNames() []string { return sortedKeys(workloads) }

// runCtx is what a workload sees of the run it is part of.
type runCtx struct {
	env    *env
	p      *params // already scaled to this run
	seed   uint64
	traced bool
	tally  *tally
	res    *result
	digest []string
}

func (x *runCtx) metric(name string, v float64, unit string) {
	x.res.Metrics[name] = metric{Value: v, Unit: unit}
}

// timing records a latency sample set under name and returns its summary.
func (x *runCtx) timing(name string, samplesMS []float64) summary {
	s := summarize(samplesMS)
	x.res.Timings[name] = s
	return s
}

func (x *runCtx) invalid(format string, args ...any) {
	x.res.Invalid = append(x.res.Invalid, fmt.Sprintf(format, args...))
}

// output adds a checked output to the run's digest.
func (x *runCtx) output(parts ...any) { x.digest = append(x.digest, fmt.Sprint(parts...)) }

// pacingChecks reports the generator's own lateness and the open-loop
// backlog, and marks the run invalid when either is outside its pinned
// limit: the latencies would then be the generator's, not the program's.
func (x *runCtx) pacingChecks(pc *pacing, limitMS float64) {
	late := pc.latenessP99()
	before, end := pc.backlog()
	x.metric("loadgen.lateness_p99_ms", late, "ms")
	x.metric("loadgen.backlog_end", float64(end), "count")
	if late > limitMS {
		x.invalid("generator lateness p99 %.3f ms exceeds %.3f ms", late, limitMS)
	}
	if end > x.p.BacklogLimit && end > before {
		x.invalid("open-loop backlog still growing at the end (%d, was %d)", end, before)
	}
}

// server is a running child with the client that drives it.
type server struct {
	x     *runCtx
	child *child
	cli   *client
	dir   string
}

// startServer makes a fresh data directory, starts crowdserve on it with
// the workload's flags, and waits for /healthz.
func (x *runCtx) startServer(name string, flags []string) (*server, error) {
	dir, err := x.env.tempDir(name)
	if err != nil {
		return nil, err
	}
	s := &server{x: x, dir: dir}
	if _, err := s.boot(flags); err != nil {
		x.env.removeDir(dir)
		return nil, err
	}
	return s, nil
}

// boot starts a child on the server's directory and returns how long it
// took from exec to the first 200 from /healthz, polled every millisecond.
func (s *server) boot(flags []string) (time.Duration, error) {
	args := append([]string{"-data-dir", s.dir, "-snapshot-every", "0"}, flags...)
	c, err := s.x.env.start(args, s.x.traced)
	if err != nil {
		return 0, err
	}
	took, err := waitHealthy(c, time.Millisecond, 60*time.Second)
	if err != nil {
		c.kill()
		return 0, err
	}
	s.child = c
	s.cli = newClient(c.base, s.x.traced, s.x.tally)
	s.x.res.Command = strings.ReplaceAll(c.commandLine(), s.x.env.work, ".bench_build")
	return took, nil
}

func (s *server) stop() {
	if s == nil {
		return
	}
	if s.child != nil {
		s.cli.close()
		s.child.kill()
	}
	s.x.env.removeDir(s.dir)
}

func (s *server) stats() (statsDTO, bool) {
	var st statsDTO
	ok := s.cli.getJSON("/api/stats", &st)
	return st, ok
}

// scrape reads /metrics (traced runs only; the untraced child has none).
func (s *server) scrape() promSample {
	r, ok := s.cli.expect(http.StatusOK, http.MethodGet, "/metrics", nil, "")
	if !ok {
		return promSample{}
	}
	return parseProm(r.body)
}

// walBytes is the size of the WAL files on disk now.
func (s *server) walBytes() int64 { return dirBytes(s.dir, "wal*.log") }

// connectionChecks fails the run if the generator opened more connections
// than its budget.
func (s *server) connectionChecks() {
	n := s.cli.dials.Load()
	s.x.tally.check(n <= maxConns, "generator opened %d connections, budget is %d", n, maxConns)
	s.x.metric("loadgen.connections", float64(n), "count")
}

// usage measures the child's and the generator's processor time over a
// phase.
type usage struct {
	pid           int
	child0, self0 float64
}

func startUsage(pid int) usage {
	u := usage{pid: pid}
	if s, err := readProc(pid); err == nil {
		u.child0 = s.cpuMS
	}
	if s, err := readProc(os.Getpid()); err == nil {
		u.self0 = s.cpuMS
	}
	return u
}

// report records process.* and loadgen.cpu_share for ops operations.
func (u usage) report(x *runCtx, ops int) {
	cs, err := readProc(u.pid)
	if err != nil {
		x.tally.check(false, "reading /proc/%d: %v", u.pid, err)
		return
	}
	ss, _ := readProc(os.Getpid()) // a zero sample only zeroes cpu_share
	childMS, selfMS := cs.cpuMS-u.child0, ss.cpuMS-u.self0
	x.metric("process.cpu_ms_per_op", childMS/float64(max(ops, 1)), "ms")
	x.metric("process.rss_peak_mb", cs.peakMB, "MB")
	if childMS+selfMS > 0 {
		x.metric("loadgen.cpu_share", selfMS/(childMS+selfMS), "ratio")
	}
}

// traceLossCheck marks a traced run invalid if the recorder's loss
// counters moved during it: the sampled traces are then a biased subset.
func (x *runCtx) traceLossCheck(d promSample) {
	for _, name := range []string{"crowdkit_trace_evicted_total", "crowdkit_trace_spans_dropped_total", "crowdkit_trace_pending_dropped_total"} {
		if n := d.sum(name); n > 0 {
			x.invalid("%s moved by %.0f during the traced run", name, n)
		}
	}
}

// runWorkload performs one run: the pinned number of set-ups (all but the
// last torn down at once), then the measurement on the last.
func runWorkload(e *env, p *params, name string, seed uint64, seconds float64, traced bool, setups int) (*result, error) {
	newWorkload, ok := workloads[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames(), ", "))
	}
	x := &runCtx{
		env: e, p: p, seed: seed, traced: traced, tally: &tally{},
		res: &result{
			Workload: name, Traced: traced, Seed: seed, Seconds: seconds,
			Metrics: map[string]metric{}, Timings: map[string]summary{},
		},
	}
	for i := 0; i < setups; i++ {
		w := newWorkload()
		start := time.Now()
		err := w.setup(x)
		x.res.SetupS = append(x.res.SetupS, time.Since(start).Seconds())
		if err == nil && i == setups-1 {
			err = w.measure(x)
		}
		w.teardown()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
	}
	x.metric("setup_s", median(x.res.SetupS), "s")
	x.metric("loadgen.build_s", e.buildS, "s")
	x.res.Attempted, x.res.Failed = x.tally.attempted.Load(), x.tally.failed.Load()
	x.res.Failures = x.tally.first
	x.res.Valid = len(x.res.Invalid) == 0
	sum := sha256.Sum256([]byte(strings.Join(x.digest, "\n")))
	x.res.Digest = hex.EncodeToString(sum[:8])
	return x.res, nil
}
