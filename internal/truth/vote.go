package truth

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/stats"
)

// MajorityVote labels each task with its most-voted option. Ties resolve
// to the lowest option index for determinism. Worker quality is estimated
// post hoc as each worker's agreement rate with the majority labels.
type MajorityVote struct{}

// Name implements Inferrer.
func (MajorityVote) Name() string { return "MV" }

// Infer implements Inferrer.
func (MajorityVote) Infer(ds *Dataset) (*Result, error) {
	votes := make([]float64, len(ds.TaskIDs)*ds.K)
	for _, r := range ds.refs {
		votes[int(r.task)*ds.K+int(r.option)]++
	}
	return voteResult("MV", ds, votes), nil
}

// WeightedMajorityVote weighs each worker's vote by a supplied weight
// (e.g. golden-task accuracy or a prior reputation score). Workers absent
// from Weights get DefaultWeight.
type WeightedMajorityVote struct {
	Weights       map[string]float64
	DefaultWeight float64
}

// Name implements Inferrer.
func (WeightedMajorityVote) Name() string { return "WMV" }

// Infer implements Inferrer.
func (v WeightedMajorityVote) Infer(ds *Dataset) (*Result, error) {
	def := v.DefaultWeight
	if def <= 0 {
		def = 0.5
	}
	weights := make([]float64, len(ds.WorkerIDs))
	for wi, name := range ds.WorkerIDs {
		w, ok := v.Weights[name]
		if !ok {
			w = def
		}
		if w < 0 {
			return nil, fmt.Errorf("truth: negative weight %v for worker %s", w, name)
		}
		weights[wi] = w
	}
	votes := make([]float64, len(ds.TaskIDs)*ds.K)
	for _, r := range ds.refs {
		votes[int(r.task)*ds.K+int(r.option)] += weights[r.worker]
	}
	return voteResult("WMV", ds, votes), nil
}

// voteResult turns a slab of per-task vote totals into a voting method's
// Result: labels are the argmax of the raw totals, posteriors the totals
// normalized in place (uniform for an unanswered task), and worker quality
// each worker's rate of agreement with the labels — the cheap post-hoc
// estimate — or 0.5 for a worker with no answers.
func voteResult(method string, ds *Dataset, votes []float64) *Result {
	res := NewResult(method, ds, votes, make([]float64, len(ds.WorkerIDs)), 0)
	for ti := range ds.TaskIDs {
		stats.Normalize(votes[ti*ds.K : ti*ds.K+ds.K])
	}
	for wi := range res.quality {
		mine := ds.wAns[ds.wOff[wi]:ds.wOff[wi+1]]
		if len(mine) == 0 {
			res.quality[wi] = 0.5
			continue
		}
		agree := 0
		for _, p := range mine {
			if r := ds.refs[p]; r.option == res.labels[r.task] {
				agree++
			}
		}
		res.quality[wi] = float64(agree) / float64(len(mine))
	}
	return res
}

// GoldenWeights derives a WeightedMajorityVote weight map from a
// WorkerScreen's golden-task observations: weight = max(acc, floor).
func GoldenWeights(screen *core.WorkerScreen, workers []string, floor float64) map[string]float64 {
	out := make(map[string]float64, len(workers))
	for _, w := range workers {
		acc, n := screen.Accuracy(w)
		if n == 0 {
			out[w] = 0.5
			continue
		}
		if acc < floor {
			acc = floor
		}
		out[w] = acc
	}
	return out
}
