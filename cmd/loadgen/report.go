package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// reportSchema names the report format; BENCH_pr2/6/7 used v1 and v2 and
// are not comparable with it.
const reportSchema = "crowdkit-bench/v3"

// report is what -out writes: where the numbers were taken, and the runs.
type report struct {
	Schema  string            `json:"schema"`
	Created string            `json:"created"`
	Env     fingerprint       `json:"env"`
	Runs    []*result         `json:"runs"`
	Probe   map[string]metric `json:"probe,omitempty"`
}

// fingerprint states the environment a report was taken in. Two reports
// are comparable when their fingerprints differ in nothing but Commit.
type fingerprint struct {
	Commit        string  `json:"commit"`
	Go            string  `json:"go"`
	NProc         int     `json:"nproc"`
	LoadgenProcs  int     `json:"loadgen_gomaxprocs"`
	ChildProcs    int     `json:"child_gomaxprocs"`
	Connections   int     `json:"connections"`
	CPU           string  `json:"cpu"`
	Kernel        string  `json:"kernel"`
	DataFS        string  `json:"data_fs"`
	Seed          uint64  `json:"seed"`
	RunSeconds    float64 `json:"run_seconds"`
	WorkloadsHash string  `json:"workloads_hash"`
}

func newReport(b *bench) *report {
	return &report{
		Schema:  reportSchema,
		Created: time.Now().UTC().Format(time.RFC3339),
		Env: fingerprint{
			Commit: gitCommit(b.env.root), Go: runtime.Version(), NProc: runtime.NumCPU(),
			LoadgenProcs: procs(), ChildProcs: procs(), Connections: maxConns,
			CPU: cpuModel(), Kernel: kernelRelease(), DataFS: fsType(b.env.work),
			Seed: b.seed, RunSeconds: b.seconds, WorkloadsHash: b.params.hash,
		},
	}
}

func (r *report) write(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// run returns the report's run of a workload, traced or not, or nil.
func (r *report) run(workload string, traced bool) *result {
	for _, res := range r.Runs {
		if res.Workload == workload && res.Traced == traced {
			return res
		}
	}
	return nil
}

func readReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, err
	}
	return &r, nil
}

// gitCommit is the checked-out commit, or "unknown" outside a git
// checkout (the driver's copy is not one).
func gitCommit(root string) string {
	cmd := exec.Command("git", "rev-parse", "--short=12", "HEAD")
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	commit := strings.TrimSpace(string(out))
	status := exec.Command("git", "status", "--porcelain", "--untracked-files=no")
	status.Dir = root
	if out, err := status.Output(); err == nil && len(bytes.TrimSpace(out)) > 0 {
		commit += "+dirty"
	}
	return commit
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func kernelRelease() string {
	data, err := os.ReadFile("/proc/sys/kernel/osrelease")
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(data))
}

// fsType names the filesystem the data directories live on, from the
// longest matching mount point; the statfs magic number is the fallback.
func fsType(dir string) string {
	if data, err := os.ReadFile("/proc/self/mounts"); err == nil {
		best, kind := "", ""
		for _, line := range strings.Split(string(data), "\n") {
			f := strings.Fields(line)
			if len(f) < 3 {
				continue
			}
			mp := f[1]
			if (dir == mp || strings.HasPrefix(dir, strings.TrimSuffix(mp, "/")+"/")) && len(mp) > len(best) {
				best, kind = mp, f[2]
			}
		}
		if kind != "" {
			return kind
		}
	}
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err == nil {
		return "magic-0x" + strconv.FormatInt(int64(st.Type), 16)
	}
	return "unknown"
}

// runProbe times direct calls into public functions the span recorder has
// no span for. It is a separate main package so that a refactor of those
// functions breaks the probe, reported as unavailable, and not the
// benchmark.
func runProbe(b *bench) map[string]metric {
	dir, err := b.env.tempDir("probe")
	if err != nil {
		return nil
	}
	defer b.env.removeDir(dir)
	p := b.params.RecoveryBoot
	cmd := exec.Command("go", "run", "./probe",
		"-dir", dir, "-tasks", strconv.Itoa(p.Tasks), "-answers", strconv.Itoa(p.PreloadAnswers),
		"-batch", strconv.Itoa(p.PreloadBatch), "-shards", strconv.Itoa(p.Shards), "-seed", strconv.FormatUint(b.seed, 10))
	cmd.Dir = filepath.Join(b.env.root, "cmd", "loadgen")
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(procs()))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return map[string]metric{"probe.unavailable": {1, "count"}}
	}
	var m map[string]metric
	if err := json.Unmarshal(out, &m); err != nil {
		return map[string]metric{"probe.unavailable": {1, "count"}}
	}
	return m
}
