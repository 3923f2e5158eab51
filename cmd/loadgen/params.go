package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
)

// params is bench/workloads.json: every pinned number of the benchmark.
// Counts are given for a run of ReferenceSeconds and scale with the
// requested length; sizes (tasks, preloads, table rows) describe the state
// the child is measured in and scale only in smoke runs.
type params struct {
	ReferenceSeconds float64 `json:"reference_seconds"`
	Setups           int     `json:"setups"`
	TracedShare      float64 `json:"traced_share"`
	TraceSample      int     `json:"trace_sample"`
	LatenessLimitMS  float64 `json:"lateness_limit_ms"`
	BacklogLimit     int     `json:"backlog_limit"`

	WorkerLoop   workerLoopParams   `json:"worker_loop"`
	ResultsPoll  resultsPollParams  `json:"results_poll"`
	CQLQuery     cqlQueryParams     `json:"cql_query"`
	RecoveryBoot recoveryBootParams `json:"recovery_boot"`

	hash string
}

type workerLoopParams struct {
	Tasks            int     `json:"tasks"`
	Shards           int     `json:"shards"`
	Fsync            string  `json:"fsync"`
	WorkersPerConn   int     `json:"workers_per_conn"`
	WarmupRoundtrips int     `json:"warmup_roundtrips"`
	ClosedRoundtrips int     `json:"closed_roundtrips"`
	OpenRoundtrips   int     `json:"open_roundtrips"`
	OpenRatePerS     float64 `json:"open_rate_per_s"`
	FlipP            float64 `json:"flip_p"`
}

type resultsPollParams struct {
	Tasks          int     `json:"tasks"`
	Shards         int     `json:"shards"`
	Fsync          string  `json:"fsync"`
	PreloadAnswers int     `json:"preload_answers"`
	PreloadBatch   int     `json:"preload_batch"`
	IngestBatches  int     `json:"ingest_batches"`
	IngestBatch    int     `json:"ingest_batch"`
	IngestPerS     float64 `json:"ingest_per_s"`
	Polls          int     `json:"polls"`
	PollEveryMS    float64 `json:"poll_every_ms"`
	Method         string  `json:"method"`
	FlipP          float64 `json:"flip_p"`
	// LatenessLimitMS replaces the common limit here: an ingest due while
	// an EM run has both processors waits for a scheduler slice (≈3 ms
	// under EEVDF) before the generator's thread runs at all.
	LatenessLimitMS float64 `json:"lateness_limit_ms"`
}

type cqlQueryParams struct {
	Shards           int     `json:"shards"`
	Fsync            string  `json:"fsync"`
	Lease            string  `json:"lease"`
	Items            int     `json:"items"`
	Facts            int     `json:"facts"`
	WarmupIterations int     `json:"warmup_iterations"`
	Iterations       int     `json:"iterations"`
	Workers          int     `json:"workers"`
	Redundancy       int     `json:"redundancy"`
	ThinkMedianMS    float64 `json:"think_median_ms"`
	ThinkSigma       float64 `json:"think_sigma"`
	IdleRepollMS     float64 `json:"idle_repoll_ms"`
	HandlePollMS     float64 `json:"handle_poll_ms"`
}

type recoveryBootParams struct {
	Tasks          int `json:"tasks"`
	Shards         int `json:"shards"`
	PreloadAnswers int `json:"preload_answers"`
	PreloadBatch   int `json:"preload_batch"`
	WALBoots       int `json:"wal_boots"`
	SnapshotBoots  int `json:"snapshot_boots"`
}

// loadParams reads bench/workloads.json under root and remembers its hash
// for the environment fingerprint.
func loadParams(root string) (*params, error) {
	path := filepath.Join(root, "bench", "workloads.json")
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var p params
	if err := json.Unmarshal(data, &p); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if p.ReferenceSeconds <= 0 || p.Setups < 1 || p.TracedShare <= 0 {
		return nil, fmt.Errorf("%s: reference_seconds, setups and traced_share must be positive", path)
	}
	sum := sha256.Sum256(data)
	p.hash = hex.EncodeToString(sum[:8])
	return &p, nil
}

// scaleN scales a count, never below floor.
func scaleN(n int, f float64, floor int) int {
	return max(floor, int(math.Round(float64(n)*f)))
}

// scaled returns a copy with every operation count multiplied by length
// and every size by size.
func (p *params) scaled(length, size float64) *params {
	q := *p
	w := &q.WorkerLoop
	w.Tasks = scaleN(w.Tasks, size, 20)
	w.WarmupRoundtrips = scaleN(w.WarmupRoundtrips, size, 20)
	w.ClosedRoundtrips = scaleN(w.ClosedRoundtrips, length*size, 20)
	w.OpenRoundtrips = scaleN(w.OpenRoundtrips, length*size, 20)

	r := &q.ResultsPoll
	r.Tasks = scaleN(r.Tasks, size, 20)
	r.PreloadAnswers = scaleN(r.PreloadAnswers, size, r.Tasks)
	r.IngestBatches = scaleN(r.IngestBatches, length*size, 4)
	r.Polls = scaleN(r.Polls, length*size, 4)

	c := &q.CQLQuery
	c.Facts = scaleN(c.Facts, size, 20)
	c.Iterations = scaleN(c.Iterations, length*size, 2)

	b := &q.RecoveryBoot
	b.Tasks = scaleN(b.Tasks, size, 20)
	b.PreloadAnswers = scaleN(b.PreloadAnswers, size, b.Tasks)
	b.WALBoots = scaleN(b.WALBoots, length*size, 2)
	b.SnapshotBoots = scaleN(b.SnapshotBoots, length*size, 2)
	return &q
}
