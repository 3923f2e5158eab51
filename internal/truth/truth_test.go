package truth

import (
	"testing"

	"repro/internal/core"
	"repro/internal/crowd"
	"repro/internal/stats"
)

// buildWorkload plants nTasks binary tasks with the given difficulty,
// collects redundancy-k answers from a population, and returns the pool.
func buildWorkload(seed uint64, nTasks, nWorkers, k int, mix crowd.Mix, difficulty float64) (*core.Pool, *Dataset) {
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
	ws := crowd.NewPopulation(rng, nWorkers, mix)
	pl := core.NewPlatform(pool, crowd.AsCoreWorkers(ws), core.Unlimited())
	assigner := core.AssignerFunc(func(p *core.Pool, worker string) (core.TaskID, bool) {
		el := p.EligibleFor(worker)
		if len(el) == 0 {
			return 0, false
		}
		// Fewest-answers-first keeps redundancy balanced.
		best := el[0]
		for _, id := range el[1:] {
			if p.AnswerCount(id) < p.AnswerCount(best) {
				best = id
			}
		}
		return best, true
	})
	if _, err := pl.CollectRedundant(assigner, k); err != nil {
		panic(err)
	}
	ds, err := FromPool(pool, pool.TaskIDs())
	if err != nil {
		panic(err)
	}
	return pool, ds
}

func inferAcc(t *testing.T, inf Inferrer, pool *core.Pool, ds *Dataset) float64 {
	t.Helper()
	res, err := inf.Infer(ds)
	if err != nil {
		t.Fatalf("%s: %v", inf.Name(), err)
	}
	return Accuracy(res, pool, ds)
}

func TestFromPoolValidation(t *testing.T) {
	pool := core.NewPool()
	id1 := pool.MustAdd(&core.Task{ID: 1, Kind: core.SingleChoice, Options: []string{"a", "b"}, GroundTruth: 0})
	id3opt := pool.MustAdd(&core.Task{ID: 2, Kind: core.SingleChoice, Options: []string{"a", "b", "c"}, GroundTruth: 0})
	idFill := pool.MustAdd(&core.Task{ID: 3, Kind: core.FillIn})

	if _, err := FromPool(pool, nil); err == nil {
		t.Fatal("empty id set should fail")
	}
	if _, err := FromPool(pool, []core.TaskID{id1, id3opt}); err == nil {
		t.Fatal("mixed option counts should fail")
	}
	if _, err := FromPool(pool, []core.TaskID{idFill}); err == nil {
		t.Fatal("non-choice task should fail")
	}
	if _, err := FromPool(pool, []core.TaskID{999}); err == nil {
		t.Fatal("unknown task should fail")
	}
	ds, err := FromPool(pool, []core.TaskID{id1})
	if err != nil {
		t.Fatal(err)
	}
	if ds.K != 2 || len(ds.TaskIDs) != 1 {
		t.Fatalf("dataset shape wrong: K=%d tasks=%d", ds.K, len(ds.TaskIDs))
	}
	if ds.TaskIndex(id1) != 0 || ds.TaskIndex(999) != -1 {
		t.Fatal("TaskIndex broken")
	}
}

func TestMajorityVoteBasic(t *testing.T) {
	pool := core.NewPool()
	id := pool.MustAdd(&core.Task{ID: 1, Kind: core.SingleChoice, Options: []string{"a", "b"}, GroundTruth: 1})
	pool.Record(core.Answer{Task: id, Worker: "w1", Option: 1})
	pool.Record(core.Answer{Task: id, Worker: "w2", Option: 1})
	pool.Record(core.Answer{Task: id, Worker: "w3", Option: 0})
	ds, _ := FromPool(pool, pool.TaskIDs())
	res, err := MajorityVote{}.Infer(ds)
	if err != nil {
		t.Fatal(err)
	}
	if res.Label(id) != 1 {
		t.Fatalf("MV label = %d", res.Label(id))
	}
	if c := res.Confidence(id); c < 0.6 || c > 0.7 {
		t.Fatalf("MV confidence = %v, want 2/3", c)
	}
	// Agreement quality: w3 disagrees with the majority.
	if q1, q3 := qualityOf(t, res, "w1"), qualityOf(t, res, "w3"); q1 != 1 || q3 != 0 {
		t.Fatalf("agreement quality wrong: w1 %v, w3 %v", q1, q3)
	}
}

func TestMajorityVoteTieDeterminism(t *testing.T) {
	pool := core.NewPool()
	id := pool.MustAdd(&core.Task{ID: 1, Kind: core.SingleChoice, Options: []string{"a", "b"}, GroundTruth: 0})
	pool.Record(core.Answer{Task: id, Worker: "w1", Option: 0})
	pool.Record(core.Answer{Task: id, Worker: "w2", Option: 1})
	ds, _ := FromPool(pool, pool.TaskIDs())
	res, _ := MajorityVote{}.Infer(ds)
	if res.Label(id) != 0 {
		t.Fatalf("tie should resolve to lowest option, got %d", res.Label(id))
	}
}

func TestMajorityVoteNoAnswersUniform(t *testing.T) {
	pool := core.NewPool()
	id := pool.MustAdd(&core.Task{ID: 1, Kind: core.SingleChoice, Options: []string{"a", "b"}, GroundTruth: 0})
	ds, _ := FromPool(pool, pool.TaskIDs())
	res, _ := MajorityVote{}.Infer(ds)
	post := res.PosteriorOf(id)
	if post[0] != 0.5 || post[1] != 0.5 {
		t.Fatalf("unanswered task posterior = %v", post)
	}
}

func TestWeightedMajorityVoteOverridesCount(t *testing.T) {
	pool := core.NewPool()
	id := pool.MustAdd(&core.Task{ID: 1, Kind: core.SingleChoice, Options: []string{"a", "b"}, GroundTruth: 1})
	// Two low-weight spammers vote 0; one trusted expert votes 1.
	pool.Record(core.Answer{Task: id, Worker: "spam1", Option: 0})
	pool.Record(core.Answer{Task: id, Worker: "spam2", Option: 0})
	pool.Record(core.Answer{Task: id, Worker: "expert", Option: 1})
	ds, _ := FromPool(pool, pool.TaskIDs())
	res, err := WeightedMajorityVote{Weights: map[string]float64{
		"spam1": 0.1, "spam2": 0.1, "expert": 0.95,
	}}.Infer(ds)
	if err != nil {
		t.Fatal(err)
	}
	if res.Label(id) != 1 {
		t.Fatalf("weighted vote ignored weights: label %d", res.Label(id))
	}
	if _, err := (WeightedMajorityVote{Weights: map[string]float64{"spam1": -1}}).Infer(ds); err == nil {
		t.Fatal("negative weight should fail")
	}
}

func TestGoldenWeights(t *testing.T) {
	screen := core.NewWorkerScreen(1, 0.5)
	screen.Observe("good", true)
	screen.Observe("good", true)
	screen.Observe("bad", false)
	w := GoldenWeights(screen, []string{"good", "bad", "new"}, 0.1)
	if w["good"] != 1 || w["bad"] != 0.1 || w["new"] != 0.5 {
		t.Fatalf("GoldenWeights = %v", w)
	}
}

func TestEMBeatsMVInSpammyRegime(t *testing.T) {
	pool, ds := buildWorkload(101, 300, 40, 5, crowd.RegimeSpammy, 0.3)
	mv := inferAcc(t, MajorityVote{}, pool, ds)
	oc := inferAcc(t, OneCoinEM{}, pool, ds)
	dsAcc := inferAcc(t, DawidSkene{}, pool, ds)
	if oc < mv-0.01 {
		t.Fatalf("OneCoinEM %.3f worse than MV %.3f in spammy regime", oc, mv)
	}
	if dsAcc < mv-0.01 {
		t.Fatalf("DS %.3f worse than MV %.3f in spammy regime", dsAcc, mv)
	}
	if mv < 0.6 {
		t.Fatalf("MV accuracy implausibly low: %.3f", mv)
	}
	if oc < 0.85 {
		t.Fatalf("OneCoinEM accuracy too low in spammy regime: %.3f", oc)
	}
}

func TestAllMethodsNearPerfectOnReliableCrowd(t *testing.T) {
	pool, ds := buildWorkload(102, 200, 30, 5, crowd.RegimeReliable, 0.2)
	for _, inf := range []Inferrer{MajorityVote{}, OneCoinEM{}, DawidSkene{}, GLAD{}} {
		if acc := inferAcc(t, inf, pool, ds); acc < 0.95 {
			t.Errorf("%s accuracy %.3f on reliable crowd", inf.Name(), acc)
		}
	}
}

func TestEMWorkerQualitySeparatesSpammers(t *testing.T) {
	rng := stats.NewRNG(103)
	pool := core.NewPool()
	for i := 0; i < 200; i++ {
		pool.MustAdd(&core.Task{
			ID: core.TaskID(i + 1), Kind: core.SingleChoice,
			Options: []string{"no", "yes"}, GroundTruth: rng.Intn(2), Difficulty: 0.2,
		})
	}
	expert := crowd.NewWorker("expert", 3.5, crowd.Honest, rng)
	spammer := crowd.NewWorker("spammer", 0, crowd.Spammer, rng)
	extra1 := crowd.NewWorker("extra1", 2, crowd.Honest, rng)
	extra2 := crowd.NewWorker("extra2", 2, crowd.Honest, rng)
	pl := core.NewPlatform(pool, []core.Worker{expert, spammer, extra1, extra2}, core.Unlimited())
	assigner := core.AssignerFunc(func(p *core.Pool, w string) (core.TaskID, bool) {
		el := p.EligibleFor(w)
		if len(el) == 0 {
			return 0, false
		}
		return el[0], true
	})
	if _, err := pl.CollectRedundant(assigner, 4); err != nil {
		t.Fatal(err)
	}
	ds, _ := FromPool(pool, pool.TaskIDs())
	for _, inf := range []Inferrer{OneCoinEM{}, DawidSkene{}, GLAD{}} {
		res, err := inf.Infer(ds)
		if err != nil {
			t.Fatal(err)
		}
		qe, qs := qualityOf(t, res, "expert"), qualityOf(t, res, "spammer")
		if qe <= qs+0.2 {
			t.Errorf("%s: expert quality %.3f not clearly above spammer %.3f",
				inf.Name(), qe, qs)
		}
	}
}

func TestGLADRecoversDifficultyOrdering(t *testing.T) {
	rng := stats.NewRNG(104)
	pool := core.NewPool()
	// First 100 tasks easy, next 100 hard.
	for i := 0; i < 200; i++ {
		d := 0.05
		if i >= 100 {
			d = 0.95
		}
		pool.MustAdd(&core.Task{
			ID: core.TaskID(i + 1), Kind: core.SingleChoice,
			Options: []string{"no", "yes"}, GroundTruth: rng.Intn(2), Difficulty: d,
		})
	}
	ws := crowd.NewPopulation(rng, 25, crowd.RegimeMixed)
	pl := core.NewPlatform(pool, crowd.AsCoreWorkers(ws), core.Unlimited())
	assigner := core.AssignerFunc(func(p *core.Pool, w string) (core.TaskID, bool) {
		el := p.EligibleFor(w)
		if len(el) == 0 {
			return 0, false
		}
		return el[0], true
	})
	if _, err := pl.CollectRedundant(assigner, 7); err != nil {
		t.Fatal(err)
	}
	ds, _ := FromPool(pool, pool.TaskIDs())
	res, err := GLAD{}.Infer(ds)
	if err != nil {
		t.Fatal(err)
	}
	easySum, hardSum := 0.0, 0.0
	for i, id := range ds.TaskIDs {
		e, ok := res.TaskEasiness(id)
		if !ok {
			t.Fatal("GLAD did not expose easiness")
		}
		if i < 100 {
			easySum += e
		} else {
			hardSum += e
		}
	}
	if easySum/100 <= hardSum/100 {
		t.Fatalf("GLAD easiness: easy tasks %.3f <= hard tasks %.3f",
			easySum/100, hardSum/100)
	}
}

func TestEMIterationsReported(t *testing.T) {
	pool, ds := buildWorkload(105, 50, 10, 3, crowd.RegimeMixed, 0.3)
	_ = pool
	res, err := OneCoinEM{MaxIter: 5}.Infer(ds)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations < 1 || res.Iterations > 5 {
		t.Fatalf("iterations = %d", res.Iterations)
	}
}

func TestThreeClassInference(t *testing.T) {
	rng := stats.NewRNG(106)
	pool := core.NewPool()
	for i := 0; i < 150; i++ {
		pool.MustAdd(&core.Task{
			ID: core.TaskID(i + 1), Kind: core.SingleChoice,
			Options:     []string{"pos", "neg", "neutral"},
			GroundTruth: rng.Intn(3), Difficulty: 0.3,
		})
	}
	ws := crowd.NewPopulation(rng, 20, crowd.RegimeMixed)
	pl := core.NewPlatform(pool, crowd.AsCoreWorkers(ws), core.Unlimited())
	assigner := core.AssignerFunc(func(p *core.Pool, w string) (core.TaskID, bool) {
		el := p.EligibleFor(w)
		if len(el) == 0 {
			return 0, false
		}
		return el[0], true
	})
	if _, err := pl.CollectRedundant(assigner, 5); err != nil {
		t.Fatal(err)
	}
	ds, _ := FromPool(pool, pool.TaskIDs())
	if ds.K != 3 {
		t.Fatalf("K = %d", ds.K)
	}
	for _, inf := range []Inferrer{MajorityVote{}, OneCoinEM{}, DawidSkene{}, GLAD{}} {
		if acc := inferAcc(t, inf, pool, ds); acc < 0.7 {
			t.Errorf("%s 3-class accuracy %.3f", inf.Name(), acc)
		}
	}
}

func TestPosteriorsAreDistributions(t *testing.T) {
	pool, ds := buildWorkload(107, 80, 15, 3, crowd.RegimeMixed, 0.4)
	_ = pool
	for _, inf := range []Inferrer{MajorityVote{}, OneCoinEM{}, DawidSkene{}, GLAD{}} {
		res, err := inf.Infer(ds)
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range ds.TaskIDs {
			post := res.PosteriorOf(id)
			if len(post) != ds.K {
				t.Fatalf("%s posterior arity %d", inf.Name(), len(post))
			}
			sum := 0.0
			for _, p := range post {
				if p < -1e-9 || p > 1+1e-9 {
					t.Fatalf("%s posterior value %v", inf.Name(), p)
				}
				sum += p
			}
			if sum < 0.999 || sum > 1.001 {
				t.Fatalf("%s posterior sums to %v", inf.Name(), sum)
			}
		}
	}
}

func TestNumericAggregation(t *testing.T) {
	rng := stats.NewRNG(108)
	pool := core.NewPool()
	var ids []core.TaskID
	for i := 0; i < 60; i++ {
		id := pool.MustAdd(&core.Task{
			ID: core.TaskID(i + 1), Kind: core.Rating,
			GroundTruthScore: rng.Range(1, 5),
		})
		ids = append(ids, id)
	}
	ws := crowd.NewPopulation(rng, 15, crowd.RegimeSpammy)
	pl := core.NewPlatform(pool, crowd.AsCoreWorkers(ws), core.Unlimited())
	assigner := core.AssignerFunc(func(p *core.Pool, w string) (core.TaskID, bool) {
		el := p.EligibleFor(w)
		if len(el) == 0 {
			return 0, false
		}
		return el[0], true
	})
	if _, err := pl.CollectRedundant(assigner, 7); err != nil {
		t.Fatal(err)
	}
	mean, err := AggregateNumeric(pool, ids, NumericMean, nil)
	if err != nil {
		t.Fatal(err)
	}
	median, err := AggregateNumeric(pool, ids, NumericMedian, nil)
	if err != nil {
		t.Fatal(err)
	}
	meanErr := NumericError(pool, mean)
	medianErr := NumericError(pool, median)
	if medianErr > meanErr+0.05 {
		t.Fatalf("median %.3f should be robust vs mean %.3f in spammy regime",
			medianErr, meanErr)
	}
	if meanErr > 1.5 {
		t.Fatalf("mean error implausibly high: %.3f", meanErr)
	}
	// Weighted mean with oracle weights beats plain mean.
	weights := make(map[string]float64)
	for _, w := range ws {
		if w.Behave == crowd.Honest {
			weights[w.Name] = w.Ability
		} else {
			weights[w.Name] = 0.01
		}
	}
	wmean, err := AggregateNumeric(pool, ids, NumericWeightedMean, weights)
	if err != nil {
		t.Fatal(err)
	}
	if NumericError(pool, wmean) > meanErr+0.01 {
		t.Fatalf("oracle-weighted mean %.3f worse than mean %.3f",
			NumericError(pool, wmean), meanErr)
	}
}

func TestAggregateNumericValidation(t *testing.T) {
	pool := core.NewPool()
	choice := pool.MustAdd(&core.Task{ID: 1, Kind: core.SingleChoice, Options: []string{"a", "b"}, GroundTruth: 0})
	if _, err := AggregateNumeric(pool, []core.TaskID{choice}, NumericMean, nil); err == nil {
		t.Fatal("non-rating task should fail")
	}
	if _, err := AggregateNumeric(pool, []core.TaskID{999}, NumericMean, nil); err == nil {
		t.Fatal("unknown task should fail")
	}
}

func TestAccuracyIgnoresUnplantedTruth(t *testing.T) {
	pool := core.NewPool()
	id := pool.MustAdd(&core.Task{ID: 1, Kind: core.SingleChoice, Options: []string{"a", "b"}, GroundTruth: -1})
	pool.Record(core.Answer{Task: id, Worker: "w1", Option: 0})
	ds, _ := FromPool(pool, pool.TaskIDs())
	res, _ := MajorityVote{}.Infer(ds)
	if acc := Accuracy(res, pool, ds); acc != 0 {
		t.Fatalf("accuracy over unplanted tasks = %v, want 0 (no denominator)", acc)
	}
}

func TestInferrerNamesAndDatasetAccessors(t *testing.T) {
	names := map[string]bool{}
	for _, inf := range []Inferrer{
		MajorityVote{}, WeightedMajorityVote{}, OneCoinEM{}, DawidSkene{}, GLAD{},
	} {
		n := inf.Name()
		if n == "" || names[n] {
			t.Fatalf("bad or duplicate inferrer name %q", n)
		}
		names[n] = true
	}
	for _, m := range []NumericMethod{NumericMean, NumericMedian, NumericWeightedMean} {
		if m.String() == "" {
			t.Fatalf("numeric method %d has empty name", int(m))
		}
	}

	pool := core.NewPool()
	id := pool.MustAdd(&core.Task{ID: 1, Kind: core.SingleChoice, Options: []string{"a", "b"}, GroundTruth: 0})
	pool.Record(core.Answer{Task: id, Worker: "w1", Option: 0})
	pool.Record(core.Answer{Task: id, Worker: "w2", Option: 1})
	ds, err := FromPool(pool, pool.TaskIDs())
	if err != nil {
		t.Fatal(err)
	}
	if ds.TotalAnswers() != 2 {
		t.Fatalf("TotalAnswers = %d", ds.TotalAnswers())
	}
	if ds.WorkerIndex("w1") < 0 || ds.WorkerIndex("nobody") != -1 {
		t.Fatal("WorkerIndex broken")
	}
	// TaskEasiness is only available from GLAD results.
	mv, _ := MajorityVote{}.Infer(ds)
	if _, ok := mv.TaskEasiness(id); ok {
		t.Fatal("MV should not expose easiness")
	}
	glad, err := GLAD{MaxIter: 2}.Infer(ds)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := glad.TaskEasiness(999); ok {
		t.Fatal("easiness for unknown task should be absent")
	}
	if c := mv.Confidence(999); c != 0 {
		t.Fatalf("confidence of unknown task = %v", c)
	}
}

func TestBradleyTerrySmoke(t *testing.T) {
	res, err := BradleyTerry(3, []Comparison{
		{I: 0, J: 1, IWon: true}, {I: 1, J: 2, IWon: true}, {I: 0, J: 2, IWon: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ranking[0] != 0 || res.Ranking[2] != 2 {
		t.Fatalf("ranking = %v", res.Ranking)
	}
}
