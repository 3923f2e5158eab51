// Package benchdata builds the seeded synthetic workloads of the kernel
// benchmarks and determinism tests in internal/truth and internal/cost,
// the only importers, all of them tests. Keeping the generators in one
// place means every benchmark of a kernel times the same inputs, so
// numbers are comparable across changes.
package benchdata

import (
	"fmt"

	"repro/internal/assign"
	"repro/internal/core"
	"repro/internal/crowd"
	"repro/internal/stats"
	"repro/internal/truth"
)

// ChoiceWorkload plants nTasks binary choice tasks with the given
// difficulty, collects redundancy-k answers from a mixed-regime crowd of
// nWorkers (assigned by assign.FewestAnswers), and returns the pool plus
// its inference Dataset.
func ChoiceWorkload(seed uint64, nTasks, nWorkers, k int, difficulty float64) (*core.Pool, *truth.Dataset) {
	rng := stats.NewRNG(seed)
	pool := core.NewPool()
	for i := 0; i < nTasks; i++ {
		pool.MustAdd(&core.Task{
			ID: core.TaskID(i + 1), Kind: core.SingleChoice,
			Options:     []string{"no", "yes"},
			GroundTruth: rng.Intn(2),
			Difficulty:  difficulty,
		})
	}
	ws := crowd.NewPopulation(rng, nWorkers, crowd.RegimeMixed)
	pl := core.NewPlatform(pool, crowd.AsCoreWorkers(ws), core.Unlimited())
	if _, err := pl.CollectRedundant(assign.FewestAnswers{}, k); err != nil {
		panic(err)
	}
	ds, err := truth.FromPool(pool, pool.TaskIDs())
	if err != nil {
		panic(err)
	}
	return pool, ds
}

// Records generates n product-style record strings with overlapping token
// vocabulary, the input shape of the similarity-join benchmarks.
func Records(seed uint64, n int) []string {
	rng := stats.NewRNG(seed)
	brands := []string{"acme", "globex", "initech", "umbrella", "soylent", "hooli"}
	kinds := []string{"phone", "tablet", "laptop", "camera", "router", "monitor"}
	colors := []string{"silver", "black", "white", "blue", "red"}
	recs := make([]string, n)
	for i := range recs {
		recs[i] = fmt.Sprintf("%s %s %s %d gen%d sku%d",
			brands[rng.Intn(len(brands))], kinds[rng.Intn(len(kinds))],
			colors[rng.Intn(len(colors))], 100+rng.Intn(900),
			1+rng.Intn(4), rng.Intn(n))
	}
	return recs
}
