package experiments

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/crowd"
	"repro/internal/stats"
	"repro/internal/truth"
)

// TestWarmStartMatchesColdStart is the numerical contract behind the
// serving layer's warm-started inference: on the experiment suite's crowd
// regimes, EM seeded from a previous converged state must reach the same
// fixed point as a cold start over the grown answer set — identical hard
// labels, posteriors within 1e-9 L-infinity. Both runs use a tight
// tolerance so the comparison measures the fixed point, not the residual
// of an early stop.
func TestWarmStartMatchesColdStart(t *testing.T) {
	const tol = 1e-12
	regimes := []struct {
		name string
		mix  crowd.Mix
	}{
		{"reliable", crowd.RegimeReliable},
		{"mixed", crowd.RegimeMixed},
		{"spammy", crowd.RegimeSpammy},
	}
	type method struct {
		name string
		make func(warm *truth.WarmState) truth.Inferrer
	}
	methods := []method{
		{"onecoin", func(w *truth.WarmState) truth.Inferrer {
			return truth.OneCoinEM{MaxIter: 5000, Tol: tol, Warm: w}
		}},
		{"ds", func(w *truth.WarmState) truth.Inferrer {
			return truth.DawidSkene{MaxIter: 5000, Tol: tol, Warm: w}
		}},
		{"glad", func(w *truth.WarmState) truth.Inferrer {
			return truth.GLAD{MaxIter: 5000, Tol: tol, Warm: w}
		}},
	}

	for ri, rg := range regimes {
		rng := stats.NewRNG(100 + uint64(ri))
		pool := labelingPool(rng, 150)
		ws := crowd.NewPopulation(rng, 40, rg.mix)
		// Phase 1: redundancy 3, the snapshot a serving cache would hold.
		if err := collectRedundant(pool, ws, 3); err != nil {
			t.Fatal(err)
		}
		ds1, err := truth.FromPool(pool, pool.TaskIDs())
		if err != nil {
			t.Fatal(err)
		}
		// Phase 2: answers keep streaming in (redundancy 5).
		if err := collectRedundant(pool, ws, 5); err != nil {
			t.Fatal(err)
		}
		ds2, err := truth.FromPool(pool, pool.TaskIDs())
		if err != nil {
			t.Fatal(err)
		}

		for _, m := range methods {
			t.Run(fmt.Sprintf("%s/%s", rg.name, m.name), func(t *testing.T) {
				prev, err := m.make(nil).Infer(ds1)
				if err != nil {
					t.Fatal(err)
				}
				if prev.Warm == nil {
					t.Fatal("iterative Infer did not produce a warm state")
				}
				cold, err := m.make(nil).Infer(ds2)
				if err != nil {
					t.Fatal(err)
				}
				warm, err := m.make(prev.Warm).Infer(ds2)
				if err != nil {
					t.Fatal(err)
				}
				if warm.Iterations > cold.Iterations {
					t.Errorf("warm start took more iterations than cold (%d > %d)",
						warm.Iterations, cold.Iterations)
				}
				linf := 0.0
				for _, id := range ds2.TaskIDs {
					if warm.Label(id) != cold.Label(id) {
						t.Fatalf("task %d: warm label %d != cold label %d",
							id, warm.Label(id), cold.Label(id))
					}
					pw, pc := warm.PosteriorOf(id), cold.PosteriorOf(id)
					for c := range pw {
						if d := math.Abs(pw[c] - pc[c]); d > linf {
							linf = d
						}
					}
				}
				if linf > 1e-9 {
					t.Fatalf("posterior L-inf divergence %.3g > 1e-9", linf)
				}
			})
		}
	}
}
