// Quickstart: publish labeling microtasks to a simulated crowd, collect
// redundant answers, and infer the truth — the minimal end-to-end loop of
// crowdsourced data management.
package main

import (
	"fmt"
	"log"

	"repro/internal/assign"
	"repro/internal/core"
	"repro/internal/crowd"
	"repro/internal/stats"
	"repro/internal/truth"
)

func main() {
	rng := stats.NewRNG(42)

	// 1. Define tasks. Each asks whether a review is positive; the planted
	// GroundTruth drives the simulated workers (real crowds replace this).
	pool := core.NewPool()
	questions := []struct {
		text  string
		truth int // 0 = negative, 1 = positive
		diff  float64
	}{
		{"'Absolutely loved it, would buy again!'", 1, 0.05},
		{"'Terrible. Broke after one day.'", 0, 0.05},
		{"'It is fine I guess, does the job.'", 1, 0.7},
		{"'Not what I expected at all.'", 0, 0.5},
		{"'Best purchase this year.'", 1, 0.1},
		{"'Meh.'", 0, 0.9},
	}
	for i, q := range questions {
		pool.MustAdd(&core.Task{
			ID:          core.TaskID(i + 1),
			Kind:        core.SingleChoice,
			Question:    "Is this review positive? " + q.text,
			Options:     []string{"negative", "positive"},
			GroundTruth: q.truth,
			Difficulty:  q.diff,
		})
	}

	// 2. Simulate a mixed-quality crowd (some experts, some spammers).
	workers := crowd.NewPopulation(rng, 25, crowd.RegimeMixed)

	// 3. Collect 5 answers per task, balancing progress across tasks.
	platform := core.NewPlatform(pool, crowd.AsCoreWorkers(workers), core.Unlimited())
	run, err := platform.CollectRedundant(assign.FewestAnswers{}, 5)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("collected %d answers over %d rounds (simulated %.0fs)\n\n",
		run.AnswersCollected, run.Rounds, run.Makespan)

	// 4. Infer the truth with majority voting and with Dawid–Skene EM.
	ds, err := truth.FromPool(pool, pool.TaskIDs())
	if err != nil {
		log.Fatal(err)
	}
	for _, inf := range []truth.Inferrer{truth.MajorityVote{}, truth.DawidSkene{}} {
		res, err := inf.Infer(ds)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s: accuracy %.2f\n", inf.Name(), truth.Accuracy(res, pool, ds))
		for _, id := range pool.TaskIDs() {
			t := pool.Task(id)
			fmt.Printf("  %-55s -> %-8s (confidence %.2f)\n",
				t.Question, t.Options[res.Label(id)], res.Confidence(id))
		}
		fmt.Println()
	}
}
