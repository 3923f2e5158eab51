// Command loadgen is the repository's benchmark: it builds the real
// crowdserve binary, starts it as a child process on a loopback port with
// a fresh data directory, drives it over real TCP from two connections,
// checks the outputs, and prints every metric by name with its unit.
//
//	loadgen -workload W -seed N -seconds S -trace 0|1   one run, one JSON line (what BENCHMARK.json's command runs)
//	loadgen -seed N -out report.json                    all four workloads, untraced and traced, one report
//	loadgen -compare a.json[,a2.json] b.json[,b2.json]  verdict per workload and end-to-end metric
//	loadgen -smoke                                      every workload at 1/20 scale with all output checks
//
// The definitions of the workloads and metrics are in bench/README.md, the
// pinned parameters in bench/workloads.json, the names, directions and
// regression bounds in BENCHMARK.json.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
)

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) (code int) {
	fs := flag.NewFlagSet("loadgen", flag.ContinueOnError)
	var (
		root     = fs.String("root", "", "repository root (default: found from the working directory)")
		workload = fs.String("workload", "", "run one workload: "+strings.Join(workloadNames(), ", "))
		seed     = fs.Uint64("seed", 42, "seed of every generated input")
		seconds  = fs.Float64("seconds", 0, "run length the operation counts are sized for (default: BENCHMARK.json's run_seconds)")
		trace    = fs.Int("trace", 0, "1 = traced run at the pinned share of the length, printing the per-layer metrics")
		out      = fs.String("out", "", "write the crowdkit-bench/v3 report here")
		compare  = fs.Bool("compare", false, "compare two report sets: -compare a.json[,..] b.json[,..]")
		smoke    = fs.Bool("smoke", false, "every workload at 1/20 scale, output checks only")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		return 1
	}
	dir, err := findRoot(*root)
	if err != nil {
		return fail(err)
	}
	spec, err := loadSpec(dir)
	if err != nil {
		return fail(err)
	}
	if *compare {
		if fs.NArg() != 2 {
			return fail(fmt.Errorf("-compare needs two report sets"))
		}
		return compareReports(os.Stdout, spec, strings.Split(fs.Arg(0), ","), strings.Split(fs.Arg(1), ","))
	}
	if *seconds <= 0 {
		*seconds = float64(spec.RunSeconds)
	}
	p, err := loadParams(dir)
	if err != nil {
		return fail(err)
	}
	runtime.GOMAXPROCS(procs())
	e, err := newEnv(dir)
	if err != nil {
		return fail(err)
	}
	// Children die and directories go on every way out: normal return,
	// panic (cleanup, then the panic continues), SIGINT and SIGTERM.
	defer e.cleanup()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		e.cleanup()
		os.Exit(130)
	}()

	b := &bench{env: e, spec: spec, params: p, seed: *seed, seconds: *seconds, size: 1}
	switch {
	case *smoke:
		return b.smoke()
	case *workload != "":
		return b.single(*workload, *trace == 1, *out)
	default:
		return b.suite(*out)
	}
}

// findRoot returns the repository root: the given directory, or the
// nearest ancestor of the working directory that holds BENCHMARK.json.
func findRoot(given string) (string, error) {
	if given != "" {
		return filepath.Abs(given)
	}
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no BENCHMARK.json in the working directory or above it; pass -root")
		}
		dir = parent
	}
}

// spec is BENCHMARK.json: the names every later change claims against.
type spec struct {
	RunSeconds int          `json:"run_seconds"`
	Workloads  []specNamed  `json:"workloads"`
	EndToEnd   []specMetric `json:"end_to_end"`
	PerLayer   []specMetric `json:"per_layer"`
}

type specNamed struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(root string) (*spec, error) {
	path := filepath.Join(root, "BENCHMARK.json")
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if s.RunSeconds < 1 || len(s.EndToEnd) == 0 {
		return nil, fmt.Errorf("%s: no run_seconds or end_to_end metrics", path)
	}
	return &s, nil
}

// bench is one invocation's configuration.
type bench struct {
	env     *env
	spec    *spec
	params  *params
	seed    uint64
	seconds float64
	size    float64 // 1, or the smoke run's share of every count and size
}

// untraced runs the full-length measurement with the pinned number of
// set-ups.
func (b *bench) untraced(name string) (*result, error) {
	length := b.seconds / b.params.ReferenceSeconds
	return runWorkload(b.env, b.params.scaled(length, b.size), name, b.seed, b.seconds, false, b.params.Setups)
}

// tracedPair runs the workload twice at the pinned share of the length,
// first with the child's tracing off and then on, and charges the
// difference between the two medians to tracing.
func (b *bench) tracedPair(name string) (*result, error) {
	seconds := b.seconds * b.params.TracedShare
	p := b.params.scaled(seconds/b.params.ReferenceSeconds, b.size)
	off, err := runWorkload(b.env, p, name, b.seed, seconds, false, 1)
	if err != nil {
		return nil, err
	}
	on, err := runWorkload(b.env, p, name, b.seed, seconds, true, 1)
	if err != nil {
		return nil, err
	}
	if base := off.Metrics["op_p50_ms"].Value; base > 0 {
		on.Metrics["obs.tracing_overhead_share"] = metric{on.Metrics["op_p50_ms"].Value/base - 1, "ratio"}
	}
	on.Attempted += off.Attempted
	on.Failed += off.Failed
	on.Failures = append(on.Failures, off.Failures...)
	return on, nil
}

// measure runs one workload the untraced or the traced way.
func (b *bench) measure(name string, traced bool) (*result, error) {
	if traced {
		return b.tracedPair(name)
	}
	return b.untraced(name)
}

// single is the BENCHMARK.json command: one workload, one JSON line last.
func (b *bench) single(name string, traced bool, out string) int {
	want := b.spec.EndToEnd
	if traced {
		want = b.spec.PerLayer
	}
	res, err := b.measure(name, traced)
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		return 1
	}
	printResult(os.Stdout, res)
	if out != "" {
		rep := newReport(b)
		rep.Runs = append(rep.Runs, res)
		if err := rep.write(out); err != nil {
			fmt.Fprintln(os.Stderr, "loadgen:", err)
			return 1
		}
	}
	line, err := driverLine(res, want, traced)
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		return 1
	}
	fmt.Println(line)
	if res.Failed > 0 {
		return 1
	}
	return 0
}

// driverLine renders the one JSON object the driver reads: exactly the
// named metrics, each as measured. An end-to-end metric the run did not
// produce is an error; a per-layer metric of a layer the workload never
// entered reads 0, which is what that layer did.
func driverLine(res *result, want []specMetric, traced bool) (string, error) {
	metrics := map[string]metric{}
	for _, m := range want {
		got, ok := res.Metrics[m.Name]
		if !ok {
			if !traced {
				return "", fmt.Errorf("%s produced no %s", res.Workload, m.Name)
			}
			got = metric{0, m.Unit}
		}
		if got.Unit != m.Unit {
			return "", fmt.Errorf("%s is measured in %s, BENCHMARK.json says %s", m.Name, got.Unit, m.Unit)
		}
		metrics[m.Name] = got
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Failed == 0, res.Attempted, res.Failed, metrics})
	return string(line), err
}

// printResult prints every metric of a run by name with its unit, the
// timings with their sample counts and named tails, and the failures.
func printResult(w *os.File, r *result) {
	mode := "untraced"
	if r.Traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "== %s (%s, seed %d, %.4g s)\n   child: %s\n", r.Workload, mode, r.Seed, r.Seconds, r.Command)
	for _, n := range sortedKeys(r.Timings) {
		s := r.Timings[n]
		fmt.Fprintf(w, "   %-28s n=%-6d p50=%-10.4f %s=%-10.4f mean=%-10.4f min=%-10.4f max=%.4f ms\n", n, s.N, s.P50, s.TailName, s.Tail, s.Mean, s.Min, s.Max)
	}
	for _, n := range sortedKeys(r.Metrics) {
		m := r.Metrics[n]
		fmt.Fprintf(w, "   %-34s %14.6g %s\n", n, m.Value, m.Unit)
	}
	share := 0.0
	if r.Attempted > 0 {
		share = float64(r.Failed) / float64(r.Attempted)
	}
	fmt.Fprintf(w, "   %-34s %14.6g ratio (attempted %d, failed %d)\n", "failed_share", share, r.Attempted, r.Failed)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "   FAILED: %s\n", f)
	}
	for _, f := range r.Invalid {
		fmt.Fprintf(w, "   INVALID RUN: %s\n", f)
	}
	fmt.Fprintf(w, "   digest %s\n", r.Digest)
}

// suite runs every workload untraced and traced and writes one report.
func (b *bench) suite(out string) int {
	rep := newReport(b)
	code := 0
	for _, name := range workloadNames() {
		for _, traced := range []bool{false, true} {
			res, err := b.measure(name, traced)
			if err != nil {
				fmt.Fprintln(os.Stderr, "loadgen:", err)
				return 1
			}
			printResult(os.Stdout, res)
			rep.Runs = append(rep.Runs, res)
			if res.Failed > 0 {
				code = 1
			}
		}
	}
	rep.Probe = runProbe(b)
	for _, n := range sortedKeys(rep.Probe) {
		fmt.Printf("   %-34s %14.6g %s\n", n, rep.Probe[n].Value, rep.Probe[n].Unit)
	}
	if out != "" {
		if err := rep.write(out); err != nil {
			fmt.Fprintln(os.Stderr, "loadgen:", err)
			return 1
		}
	}
	return code
}

// smoke runs every workload at 1/20 scale, once untraced and once traced,
// for the output checks alone.
func (b *bench) smoke() int {
	const share = 0.05
	p := b.params.scaled(1, share)
	code := 0
	for _, name := range workloadNames() {
		for _, traced := range []bool{false, true} {
			res, err := runWorkload(b.env, p, name, b.seed, b.params.ReferenceSeconds*share, traced, 1)
			if err != nil {
				fmt.Fprintln(os.Stderr, "loadgen:", err)
				return 1
			}
			fmt.Printf("smoke %-14s traced=%-5v attempted=%-6d failed=%d\n", name, traced, res.Attempted, res.Failed)
			for _, f := range res.Failures {
				fmt.Printf("   FAILED: %s\n", f)
			}
			if res.Failed > 0 {
				code = 1
			}
		}
	}
	return code
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
