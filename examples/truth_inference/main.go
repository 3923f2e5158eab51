// Truth inference: compare majority voting against worker-model EM
// methods as the crowd degrades from reliable to spam-heavy, and show how
// the models separate good workers from spammers.
package main

import (
	"fmt"
	"log"
	"sort"

	"repro/internal/assign"
	"repro/internal/core"
	"repro/internal/crowd"
	"repro/internal/stats"
	"repro/internal/truth"
)

func main() {
	fmt.Println("regime    method      accuracy")
	fmt.Println("--------------------------------")
	for _, regime := range []string{"reliable", "mixed", "spammy"} {
		mix, err := crowd.RegimeByName(regime)
		if err != nil {
			log.Fatal(err)
		}
		rng := stats.NewRNG(21)
		pool := core.NewPool()
		for i := 0; i < 400; i++ {
			pool.MustAdd(&core.Task{
				ID: core.TaskID(i + 1), Kind: core.SingleChoice,
				Options:     []string{"no", "yes"},
				GroundTruth: rng.Intn(2),
				Difficulty:  rng.Beta(2, 5),
			})
		}
		ws := crowd.NewPopulation(rng, 35, mix)
		pl := core.NewPlatform(pool, crowd.AsCoreWorkers(ws), core.Unlimited())
		if _, err := pl.CollectRedundant(assign.FewestAnswers{}, 5); err != nil {
			log.Fatal(err)
		}
		ds, err := truth.FromPool(pool, pool.TaskIDs())
		if err != nil {
			log.Fatal(err)
		}
		for _, inf := range []truth.Inferrer{
			truth.MajorityVote{}, truth.OneCoinEM{}, truth.DawidSkene{}, truth.GLAD{},
		} {
			res, err := inf.Infer(ds)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("%-9s %-11s %.3f\n", regime, inf.Name(), truth.Accuracy(res, pool, ds))
		}

		if regime == "spammy" {
			// Show the worker-quality separation OneCoinEM achieves.
			res, err := truth.OneCoinEM{}.Infer(ds)
			if err != nil {
				log.Fatal(err)
			}
			type wq struct {
				name    string
				est     float64
				behave  crowd.Behavior
				ability float64
			}
			var list []wq
			for _, w := range ws {
				if q, ok := res.Quality(w.Name); ok {
					list = append(list, wq{w.Name, q, w.Behave, w.Ability})
				}
			}
			sort.Slice(list, func(i, j int) bool { return list[i].est > list[j].est })
			fmt.Println("\nspammy-regime worker quality as estimated by OneCoinEM:")
			fmt.Println("  worker  est.quality  actual-behavior")
			for i, w := range list {
				if i >= 5 && i < len(list)-5 {
					if i == 5 {
						fmt.Println("  ...")
					}
					continue
				}
				fmt.Printf("  %-7s %10.3f  %v (ability %.1f)\n", w.name, w.est, w.behave, w.ability)
			}
			fmt.Println()
		}
	}
}
