package assign

import (
	"errors"
	"math"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/crowd"
	"repro/internal/stats"
	"repro/internal/truth"
)

func binaryPool(n int, rng *stats.RNG, difficulty float64) *core.Pool {
	p := core.NewPool()
	for i := 0; i < n; i++ {
		p.MustAdd(&core.Task{
			ID: core.TaskID(i + 1), Kind: core.SingleChoice,
			Options: []string{"no", "yes"}, GroundTruth: rng.Intn(2),
			Difficulty: difficulty,
		})
	}
	return p
}

func TestRandomAssignsEligible(t *testing.T) {
	rng := stats.NewRNG(1)
	p := binaryPool(10, rng, 0.2)
	r := &Random{RNG: rng}
	seen := map[core.TaskID]bool{}
	for i := 0; i < 200; i++ {
		id, ok := r.Assign(p, "w1")
		if !ok {
			t.Fatal("no assignment from fresh pool")
		}
		seen[id] = true
	}
	if len(seen) < 8 {
		t.Fatalf("random assigner visited only %d/10 tasks", len(seen))
	}
	// After w1 answers everything, nothing is eligible.
	for _, id := range p.TaskIDs() {
		p.Record(core.Answer{Task: id, Worker: "w1", Option: 0})
	}
	if _, ok := r.Assign(p, "w1"); ok {
		t.Fatal("assigned a task the worker already answered")
	}
	if _, ok := r.Assign(p, "w2"); !ok {
		t.Fatal("other workers should still be assignable")
	}
}

func TestFewestAnswersBalances(t *testing.T) {
	rng := stats.NewRNG(2)
	p := binaryPool(5, rng, 0.2)
	// Give task 1 three answers.
	for _, w := range []string{"a", "b", "c"} {
		p.Record(core.Answer{Task: 1, Worker: w, Option: 0})
	}
	id, ok := FewestAnswers{}.Assign(p, "fresh")
	if !ok || id == 1 {
		t.Fatalf("FewestAnswers picked %d, should avoid loaded task 1", id)
	}
	// Ties break by insertion order.
	id, _ = FewestAnswers{}.Assign(p, "fresh2")
	if id != 2 {
		t.Fatalf("tie-break should give task 2, got %d", id)
	}
}

func TestUncertaintyPrefersSplitVotes(t *testing.T) {
	rng := stats.NewRNG(3)
	p := binaryPool(3, rng, 0.2)
	// Task 1: unanimous 3-0. Task 2: split 2-2 (max entropy). Task 3: two
	// agreeing answers (lower entropy than the split).
	for _, w := range []string{"a", "b", "c"} {
		p.Record(core.Answer{Task: 1, Worker: w, Option: 0})
	}
	p.Record(core.Answer{Task: 2, Worker: "a", Option: 0})
	p.Record(core.Answer{Task: 2, Worker: "b", Option: 0})
	p.Record(core.Answer{Task: 2, Worker: "c", Option: 1})
	p.Record(core.Answer{Task: 2, Worker: "d", Option: 1})
	p.Record(core.Answer{Task: 3, Worker: "a", Option: 1})
	p.Record(core.Answer{Task: 3, Worker: "b", Option: 1})
	id, ok := Uncertainty{}.Assign(p, "fresh")
	if !ok || id != 2 {
		t.Fatalf("Uncertainty picked %d, want the split task 2", id)
	}
}

func TestQASCAPrefersUncertainTask(t *testing.T) {
	rng := stats.NewRNG(4)
	p := binaryPool(2, rng, 0.2)
	// Task 1 is already confident (4-0); task 2 is split (2-2).
	for _, w := range []string{"a", "b", "c", "d"} {
		p.Record(core.Answer{Task: 1, Worker: w, Option: 0})
	}
	p.Record(core.Answer{Task: 2, Worker: "a", Option: 0})
	p.Record(core.Answer{Task: 2, Worker: "b", Option: 0})
	p.Record(core.Answer{Task: 2, Worker: "c", Option: 1})
	p.Record(core.Answer{Task: 2, Worker: "d", Option: 1})
	q := &QASCA{Quality: ConstantQuality(0.8)}
	id, ok := q.Assign(p, "fresh")
	if !ok || id != 2 {
		t.Fatalf("QASCA picked %d, want split task 2", id)
	}
}

func TestQASCACandidatePruning(t *testing.T) {
	rng := stats.NewRNG(5)
	p := binaryPool(50, rng, 0.2)
	q := &QASCA{Quality: ConstantQuality(0.8), Candidates: 5}
	if _, ok := q.Assign(p, "w"); !ok {
		t.Fatal("pruned QASCA failed to assign")
	}
}

func TestQASCAPosteriorConsistency(t *testing.T) {
	rng := stats.NewRNG(6)
	p := binaryPool(1, rng, 0.2)
	q := &QASCA{}
	var sc qascaScratch
	post := q.posterior(p, 1, ConstantQuality(0.8), &sc)
	if math.Abs(post[0]-0.5) > 1e-9 {
		t.Fatalf("empty posterior %v, want uniform", post)
	}
	p.Record(core.Answer{Task: 1, Worker: "a", Option: 1})
	post = q.posterior(p, 1, ConstantQuality(0.8), &sc)
	if post[1] < 0.75 || post[1] > 0.85 {
		t.Fatalf("one 0.8-quality answer should give ~0.8 posterior, got %v", post)
	}
}

func TestExpectedGainPositiveForUncertain(t *testing.T) {
	rng := stats.NewRNG(7)
	p := binaryPool(1, rng, 0.2)
	q := &QASCA{}
	var sc qascaScratch
	gain := q.expectedGain(p, 1, 0.9, ConstantQuality(0.9), &sc)
	if gain <= 0 {
		t.Fatalf("gain on fresh task = %v, want > 0", gain)
	}
	// A very confident task should gain little.
	for _, w := range []string{"a", "b", "c", "d", "e", "f"} {
		p.Record(core.Answer{Task: 1, Worker: w, Option: 0})
	}
	gain2 := q.expectedGain(p, 1, 0.9, ConstantQuality(0.9), &sc)
	if gain2 >= gain {
		t.Fatalf("confident-task gain %v should be below fresh-task gain %v", gain2, gain)
	}
}

func TestConfidenceStopper(t *testing.T) {
	rng := stats.NewRNG(8)
	p := binaryPool(2, rng, 0.2)
	// Task 1: 3 agreeing answers => confident. Task 2: none.
	for _, w := range []string{"a", "b", "c"} {
		p.Record(core.Answer{Task: 1, Worker: w, Option: 0})
	}
	s := &ConfidenceStopper{Threshold: 0.9, MinAnswers: 2, Quality: ConstantQuality(0.8)}
	closed := s.Sweep(p)
	if closed != 1 || !p.Closed(1) || p.Closed(2) {
		t.Fatalf("stopper closed %d; task1 closed=%v task2 closed=%v",
			closed, p.Closed(1), p.Closed(2))
	}
	// MinAnswers guards against closing fresh tasks even at high prior.
	s2 := &ConfidenceStopper{Threshold: 0.4, MinAnswers: 1}
	if n := s2.Sweep(p); n != 0 {
		t.Fatalf("stopper closed %d unanswered tasks", n)
	}
}

// runBudget runs a budget-limited collection with the given assigner and
// returns inferred accuracy under OneCoinEM.
func runBudget(t *testing.T, seed uint64, assigner core.Assigner, budget int64) float64 {
	t.Helper()
	rng := stats.NewRNG(seed)
	pool := core.NewPool()
	for i := 0; i < 150; i++ {
		// Half the tasks are hard: uncertainty-aware policies should
		// funnel extra answers to them.
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
	if _, err := pl.CollectBudget(assigner); err != nil && !errors.Is(err, core.ErrBudgetExhausted) {
		t.Fatal(err)
	}
	ds, err := truth.FromPool(pool, pool.TaskIDs())
	if err != nil {
		t.Fatal(err)
	}
	res, err := truth.OneCoinEM{}.Infer(ds)
	if err != nil {
		t.Fatal(err)
	}
	return truth.Accuracy(res, pool, ds)
}

func TestQualityAwareAssignmentBeatsRandomUnderBudget(t *testing.T) {
	// With a budget of ~3 answers/task, smart assignment should not lose
	// to random assignment. Average over seeds to damp variance.
	seeds := []uint64{11, 12, 13, 14, 15}
	var randAcc, qascaAcc float64
	for _, s := range seeds {
		randAcc += runBudget(t, s, &Random{RNG: stats.NewRNG(s * 7)}, 450)
		qascaAcc += runBudget(t, s, &QASCA{Quality: ConstantQuality(0.75)}, 450)
	}
	randAcc /= float64(len(seeds))
	qascaAcc /= float64(len(seeds))
	if qascaAcc < randAcc-0.02 {
		t.Fatalf("QASCA %.3f clearly worse than random %.3f", qascaAcc, randAcc)
	}
	if randAcc < 0.6 || qascaAcc < 0.6 {
		t.Fatalf("implausibly low accuracies: random %.3f qasca %.3f", randAcc, qascaAcc)
	}
}

func TestAssignersRespectEligibility(t *testing.T) {
	rng := stats.NewRNG(16)
	p := binaryPool(3, rng, 0.2)
	p.Close(1)
	p.Record(core.Answer{Task: 2, Worker: "w", Option: 0})
	assigners := []core.Assigner{
		&Random{RNG: rng},
		FewestAnswers{},
		Uncertainty{},
		&QASCA{},
	}
	for _, a := range assigners {
		id, ok := a.Assign(p, "w")
		if !ok {
			t.Fatal("assigner found nothing with one eligible task")
		}
		if id != 3 {
			t.Fatalf("%T assigned %d; only task 3 is eligible for w", a, id)
		}
	}
}

func TestConstantQuality(t *testing.T) {
	q := ConstantQuality(0.66)
	if q("anyone") != 0.66 {
		t.Fatal("ConstantQuality broken")
	}
}

// TestFewestAnswersLeaseAware: outstanding leases count as in-flight, so
// a leased task is not handed out again while unleased tasks need
// answers, and an expired lease drops the task back to the front.
func TestFewestAnswersLeaseAware(t *testing.T) {
	rng := stats.NewRNG(21)
	p := binaryPool(3, rng, 0.2)
	deadline := time.Unix(1000, 0)

	// Lease task 1 and task 2; the only un-covered task is 3.
	if err := p.Lease(1, "gone1", deadline); err != nil {
		t.Fatal(err)
	}
	if err := p.Lease(2, "gone2", deadline); err != nil {
		t.Fatal(err)
	}
	id, ok := FewestAnswers{}.Assign(p, "fresh")
	if !ok || id != 3 {
		t.Fatalf("assigned %d, want the unleased task 3", id)
	}

	// After the sweep reclaims both leases, insertion order wins again.
	if exp := p.ExpireLeases(deadline.Add(time.Second)); len(exp) != 2 {
		t.Fatalf("expired %d leases, want 2", len(exp))
	}
	id, ok = FewestAnswers{}.Assign(p, "fresh")
	if !ok || id != 1 {
		t.Fatalf("assigned %d after reclamation, want 1", id)
	}
}

// TestFewestAnswersUnchangedWithoutLeases is the determinism guard for
// the lease-aware rewrite: on a pool that never leases, InFlight equals
// AnswerCount, so assignments (and therefore CollectRedundant cost and
// makespan) are identical to the pre-lease policy.
func TestFewestAnswersUnchangedWithoutLeases(t *testing.T) {
	// Reference implementation: the pre-lease AnswerCount-balanced policy.
	legacy := core.AssignerFunc(func(p *core.Pool, worker string) (core.TaskID, bool) {
		el := p.EligibleFor(worker)
		if len(el) == 0 {
			return 0, false
		}
		best := el[0]
		bestN := p.AnswerCount(best)
		for _, id := range el[1:] {
			if n := p.AnswerCount(id); n < bestN {
				best, bestN = id, n
			}
		}
		return best, true
	})

	run := func(assigner core.Assigner) (core.RunResult, []int) {
		rng := stats.NewRNG(77)
		p := binaryPool(30, rng, 0.3)
		ws := crowd.AsCoreWorkers(crowd.NewPopulation(rng, 9, crowd.RegimeMixed))
		pl := core.NewPlatform(p, ws, core.NewBudget(30*5+50))
		res, err := pl.CollectRedundant(assigner, 5)
		if err != nil && !errors.Is(err, core.ErrBudgetExhausted) {
			t.Fatal(err)
		}
		counts := make([]int, 0, 30)
		for _, id := range p.TaskIDs() {
			counts = append(counts, p.AnswerCount(id))
		}
		return res, counts
	}

	gotRes, gotCounts := run(FewestAnswers{})
	wantRes, wantCounts := run(legacy)
	if gotRes != wantRes {
		t.Fatalf("lease-aware run diverged without leases:\n got %+v\nwant %+v", gotRes, wantRes)
	}
	for i := range gotCounts {
		if gotCounts[i] != wantCounts[i] {
			t.Fatalf("task %d answer count %d != legacy %d", i+1, gotCounts[i], wantCounts[i])
		}
	}
}
