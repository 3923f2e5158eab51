package experiments

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/assign"
	"repro/internal/core"
	"repro/internal/crowd"
	"repro/internal/stats"
	"repro/internal/truth"
)

// balancedAssigner keeps redundancy even across open tasks.
var balancedAssigner core.Assigner = assign.FewestAnswers{}

// labelingPool plants nTasks binary labeling tasks with Beta(2,5)
// difficulties.
func labelingPool(rng *stats.RNG, nTasks int) *core.Pool {
	pool := core.NewPool()
	for i := 0; i < nTasks; i++ {
		pool.MustAdd(&core.Task{
			ID: core.TaskID(i + 1), Kind: core.SingleChoice,
			Options:     []string{"no", "yes"},
			GroundTruth: rng.Intn(2),
			Difficulty:  rng.Beta(2, 5),
		})
	}
	return pool
}

// collectRedundant gathers k answers per task from the population.
func collectRedundant(pool *core.Pool, ws []*crowd.Worker, k int) error {
	pl := core.NewPlatform(pool, crowd.AsCoreWorkers(ws), core.Unlimited())
	_, err := pl.CollectRedundant(balancedAssigner, k)
	return err
}

// inferrers is the method lineup used by the truth-inference experiments.
func inferrers() []truth.Inferrer {
	return []truth.Inferrer{
		truth.MajorityVote{},
		truth.OneCoinEM{},
		truth.DawidSkene{},
		truth.GLAD{},
	}
}

// trueWorkerAccuracy computes a worker's actual expected accuracy over
// the pool's tasks (the oracle against which estimated quality is scored).
func trueWorkerAccuracy(w *crowd.Worker, pool *core.Pool) float64 {
	total, sum := 0, 0.0
	for _, id := range pool.TaskIDs() {
		t := pool.Task(id)
		switch w.Behave {
		case crowd.Spammer:
			sum += 1 / float64(len(t.Options))
		case crowd.Adversary:
			sum += 0
		default:
			sum += w.CorrectProb(t.Difficulty)
		}
		total++
	}
	if total == 0 {
		return 0
	}
	return sum / float64(total)
}

// T2TruthInference compares inference methods across crowd-quality
// regimes: label accuracy and worker-quality estimation error.
func T2TruthInference(seed uint64) (*Table, error) {
	tbl := &Table{
		ID:     "T2",
		Title:  "Truth inference: accuracy and worker-quality error by regime",
		Header: []string{"regime", "method", "accuracy", "worker-MAE", "iterations"},
		Notes: []string{
			"1000 binary tasks, 50 workers, redundancy 5, difficulty ~ Beta(2,5)",
			fmt.Sprintf("seed %d", seed),
		},
	}
	for _, regime := range []string{"reliable", "mixed", "spammy"} {
		mix, err := crowd.RegimeByName(regime)
		if err != nil {
			return nil, err
		}
		rng := stats.NewRNG(seed)
		pool := labelingPool(rng, 1000)
		ws := crowd.NewPopulation(rng, 50, mix)
		if err := collectRedundant(pool, ws, 5); err != nil {
			return nil, err
		}
		ds, err := truth.FromPool(pool, pool.TaskIDs())
		if err != nil {
			return nil, err
		}
		trueAcc := make(map[string]float64, len(ws))
		for _, w := range ws {
			trueAcc[w.Name] = trueWorkerAccuracy(w, pool)
		}
		for _, inf := range inferrers() {
			res, err := inf.Infer(ds)
			if err != nil {
				return nil, err
			}
			acc := truth.Accuracy(res, pool, ds)
			mae, n := 0.0, 0
			for _, w := range ds.WorkerIDs {
				if ta, ok := trueAcc[w]; ok {
					q, _ := res.Quality(w)
					mae += math.Abs(q - ta)
					n++
				}
			}
			if n > 0 {
				mae /= float64(n)
			}
			tbl.AddRow(regime, inf.Name(), acc, mae, res.Iterations)
		}
	}
	return tbl, nil
}

// F1Redundancy sweeps the answers-per-task budget: accuracy vs k for each
// method on the mixed regime.
func F1Redundancy(seed uint64) (*Table, error) {
	tbl := &Table{
		ID:     "F1",
		Title:  "Accuracy vs redundancy k (mixed crowd)",
		Header: []string{"k", "MV", "OneCoinEM", "DS", "GLAD"},
		Notes: []string{
			"500 binary tasks, 40 workers, mixed regime",
			fmt.Sprintf("seed %d", seed),
		},
	}
	for _, k := range []int{1, 3, 5, 7, 9} {
		rng := stats.NewRNG(seed)
		pool := labelingPool(rng, 500)
		ws := crowd.NewPopulation(rng, 40, crowd.RegimeMixed)
		if err := collectRedundant(pool, ws, k); err != nil {
			return nil, err
		}
		ds, err := truth.FromPool(pool, pool.TaskIDs())
		if err != nil {
			return nil, err
		}
		row := []any{k}
		for _, inf := range inferrers() {
			res, err := inf.Infer(ds)
			if err != nil {
				return nil, err
			}
			row = append(row, truth.Accuracy(res, pool, ds))
		}
		tbl.AddRow(row...)
	}
	return tbl, nil
}

// F2Assignment sweeps the total answer budget and compares assignment
// policies by final inferred accuracy (OneCoinEM aggregation).
func F2Assignment(seed uint64) (*Table, error) {
	tbl := &Table{
		ID:     "F2",
		Title:  "Assignment policy: accuracy vs budget (answers per task)",
		Header: []string{"budget/task", "random", "fewest", "entropy", "qasca"},
		Notes: []string{
			"200 binary tasks (half hard), 30 workers, mixed regime; OneCoinEM aggregation; mean of 3 seeds",
			fmt.Sprintf("seed %d", seed),
		},
	}
	const nTasks = 200
	run := func(seed uint64, factory func(*stats.RNG) core.Assigner, budget int64) (float64, error) {
		rng := stats.NewRNG(seed)
		pool := core.NewPool()
		for i := 0; i < nTasks; i++ {
			d := 0.1
			if i%2 == 0 {
				d = 0.8
			}
			pool.MustAdd(&core.Task{
				ID: core.TaskID(i + 1), Kind: core.SingleChoice,
				Options: []string{"no", "yes"}, GroundTruth: rng.Intn(2),
				Difficulty: d,
			})
		}
		ws := crowd.NewPopulation(rng, 30, crowd.RegimeMixed)
		pl := core.NewPlatform(pool, crowd.AsCoreWorkers(ws), core.NewBudget(budget))
		if _, err := pl.CollectBudget(factory(rng)); err != nil && !errors.Is(err, core.ErrBudgetExhausted) {
			return 0, err
		}
		ds, err := truth.FromPool(pool, pool.TaskIDs())
		if err != nil {
			return 0, err
		}
		res, err := truth.OneCoinEM{}.Infer(ds)
		if err != nil {
			return 0, err
		}
		return truth.Accuracy(res, pool, ds), nil
	}
	policies := []struct {
		name    string
		factory func(*stats.RNG) core.Assigner
	}{
		{"random", func(rng *stats.RNG) core.Assigner { return &assign.Random{RNG: rng.Split()} }},
		{"fewest", func(*stats.RNG) core.Assigner { return assign.FewestAnswers{} }},
		{"entropy", func(*stats.RNG) core.Assigner { return assign.Uncertainty{} }},
		{"qasca", func(*stats.RNG) core.Assigner { return &assign.QASCA{Quality: assign.ConstantQuality(0.75)} }},
	}
	for _, mult := range []int{1, 2, 3, 4, 6} {
		row := []any{mult}
		for _, p := range policies {
			sum := 0.0
			const reps = 3
			for r := uint64(0); r < reps; r++ {
				acc, err := run(seed+r, p.factory, int64(mult*nTasks))
				if err != nil {
					return nil, err
				}
				sum += acc
			}
			row = append(row, sum/reps)
		}
		tbl.AddRow(row...)
	}
	return tbl, nil
}

// T3Elimination measures golden-task worker screening in a spam-heavy
// crowd: accuracy and the share of answers wasted on eliminated workers,
// as the golden-task fraction grows.
func T3Elimination(seed uint64) (*Table, error) {
	tbl := &Table{
		ID:     "T3",
		Title:  "Golden-task worker elimination (spammy crowd)",
		Header: []string{"golden%", "eliminated", "accuracy", "answers"},
		Notes: []string{
			"400 binary tasks, 40 workers, spammy regime, redundancy 5; screen: min 3 goldens, min accuracy 0.6",
			fmt.Sprintf("seed %d", seed),
		},
	}
	for _, goldenPct := range []int{0, 5, 10, 20} {
		// Independent streams so every golden level sees the *same* crowd
		// and the same non-golden tasks; only the golden budget varies.
		taskRng := stats.NewRNG(seed)
		crowdRng := stats.NewRNG(seed ^ 0x9e3779b97f4a7c15)
		pool := core.NewPool()
		const nTasks = 400
		nGolden := nTasks * goldenPct / 100
		// Golden tasks first (deliberately easy), then the real workload.
		for i := 0; i < nGolden; i++ {
			pool.MustAdd(&core.Task{
				ID: core.TaskID(i + 1), Kind: core.SingleChoice,
				Options:     []string{"no", "yes"},
				GroundTruth: i % 2,
				Difficulty:  0.05,
				Golden:      true,
			})
		}
		for i := 0; i < nTasks; i++ {
			pool.MustAdd(&core.Task{
				ID: core.TaskID(nGolden + i + 1), Kind: core.SingleChoice,
				Options:     []string{"no", "yes"},
				GroundTruth: taskRng.Intn(2),
				Difficulty:  taskRng.Beta(2, 5),
			})
		}
		ws := crowd.NewPopulation(crowdRng, 40, crowd.RegimeSpammy)
		pl := core.NewPlatform(pool, crowd.AsCoreWorkers(ws), core.Unlimited())
		if goldenPct > 0 {
			pl.Screen = core.NewWorkerScreen(3, 0.6)
		}
		res, err := pl.CollectRedundant(balancedAssigner, 5)
		if err != nil {
			return nil, err
		}
		// Score only the non-golden tasks.
		var ids []core.TaskID
		for _, id := range pool.TaskIDs() {
			if !pool.Task(id).Golden {
				ids = append(ids, id)
			}
		}
		ds, err := truth.FromPool(pool, ids)
		if err != nil {
			return nil, err
		}
		inf, err := truth.MajorityVote{}.Infer(ds)
		if err != nil {
			return nil, err
		}
		eliminated := 0
		if pl.Screen != nil {
			eliminated = len(pl.Screen.EliminatedWorkers())
		}
		tbl.AddRow(goldenPct, eliminated, truth.Accuracy(inf, pool, ds), res.AnswersCollected)
	}
	return tbl, nil
}
