package truth

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/crowd"
)

// referenceLayout derives the dense layout of a pool's usable answers the
// obvious way — sort the worker names, walk the tasks, look every name up —
// so FromPool and AppendDelta chains are both checked against something
// that shares none of their merge logic.
func referenceLayout(pool *core.Pool, ids []core.TaskID, k int) *Dataset {
	ref := &Dataset{K: k, TaskIDs: ids, taskOff: []int32{0}}
	seen := map[string]bool{}
	for _, id := range ids {
		for _, a := range pool.Answers(id) {
			if a.Option >= 0 && a.Option < k && !seen[a.Worker] {
				seen[a.Worker] = true
				ref.WorkerIDs = append(ref.WorkerIDs, a.Worker)
			}
		}
	}
	sort.Strings(ref.WorkerIDs)
	byWorker := make([][]int32, len(ref.WorkerIDs))
	for ti, id := range ids {
		for _, a := range pool.Answers(id) {
			if a.Option < 0 || a.Option >= k {
				continue
			}
			wi := sort.SearchStrings(ref.WorkerIDs, a.Worker)
			byWorker[wi] = append(byWorker[wi], int32(len(ref.refs)))
			ref.refs = append(ref.refs, answerRef{task: int32(ti), worker: int32(wi), option: int32(a.Option)})
		}
		ref.taskOff = append(ref.taskOff, int32(len(ref.refs)))
	}
	ref.wOff = []int32{0}
	for _, ps := range byWorker {
		ref.wAns = append(ref.wAns, ps...)
		ref.wOff = append(ref.wOff, int32(len(ref.wAns)))
	}
	return ref
}

// sameDataset compares the flat layout and every public accessor.
func sameDataset(t *testing.T, what string, got, want *Dataset) {
	t.Helper()
	if got.K != want.K || !reflect.DeepEqual(got.TaskIDs, want.TaskIDs) {
		t.Fatalf("%s: K/TaskIDs differ", what)
	}
	if !reflect.DeepEqual(got.WorkerIDs, want.WorkerIDs) {
		t.Fatalf("%s: WorkerIDs\n got %v\nwant %v", what, got.WorkerIDs, want.WorkerIDs)
	}
	for name, pair := range map[string][2]any{
		"refs":    {got.refs, want.refs},
		"taskOff": {got.taskOff, want.taskOff},
		"wAns":    {got.wAns, want.wAns},
		"wOff":    {got.wOff, want.wOff},
	} {
		if !reflect.DeepEqual(pair[0], pair[1]) {
			t.Fatalf("%s: %s differs\n got %v\nwant %v", what, name, pair[0], pair[1])
		}
	}
	if got.TotalAnswers() != len(want.refs) {
		t.Fatalf("%s: TotalAnswers %d, want %d", what, got.TotalAnswers(), len(want.refs))
	}
	for ti, id := range want.TaskIDs {
		if got.TaskIndex(id) != ti {
			t.Fatalf("%s: TaskIndex(%d) = %d, want %d", what, id, got.TaskIndex(id), ti)
		}
	}
	for wi, w := range want.WorkerIDs {
		if got.WorkerIndex(w) != wi {
			t.Fatalf("%s: WorkerIndex(%s) = %d, want %d", what, w, got.WorkerIndex(w), wi)
		}
	}
	if got.TaskIndex(-1) != -1 || got.WorkerIndex("no such worker") != -1 {
		t.Fatalf("%s: unknown ids must index to -1", what)
	}
}

// sameInference checks that two results agree bit for bit through every
// accessor.
func sameInference(t *testing.T, what string, got, want *Result) {
	t.Helper()
	ds := want.Dataset()
	if got.Iterations != want.Iterations {
		t.Fatalf("%s: iterations %d, want %d", what, got.Iterations, want.Iterations)
	}
	for ti, id := range ds.TaskIDs {
		if got.Label(id) != want.Label(id) || got.LabelAt(ti) != want.Label(id) {
			t.Fatalf("%s: task %d label %d, want %d", what, id, got.Label(id), want.Label(id))
		}
		gp, wp := got.PosteriorOf(id), want.PosteriorOf(id)
		for c := range wp {
			if math.Float64bits(gp[c]) != math.Float64bits(wp[c]) {
				t.Fatalf("%s: task %d posterior[%d] %v, want %v", what, id, c, gp[c], wp[c])
			}
		}
		if got.Confidence(id) != want.Confidence(id) || got.ConfidenceAt(ti) != gp[got.Label(id)] {
			t.Fatalf("%s: task %d confidence %v, want %v", what, id, got.Confidence(id), want.Confidence(id))
		}
	}
	for _, w := range ds.WorkerIDs {
		if gq, wq := qualityOf(t, got, w), qualityOf(t, want, w); math.Float64bits(gq) != math.Float64bits(wq) {
			t.Fatalf("%s: worker %s quality %v, want %v", what, w, gq, wq)
		}
	}
}

// seedPool holds nTasks open k-option tasks answered by workers m-w00 …
// m-w11, worker w skipping the tasks i with (i+w)%3 == 0.
func seedPool(t *testing.T, nTasks, k int) *core.Pool {
	t.Helper()
	pool := core.NewPool()
	for i := 1; i <= nTasks; i++ {
		pool.MustAdd(&core.Task{
			ID: core.TaskID(i), Kind: core.SingleChoice,
			Options: []string{"a", "b", "c", "d"}[:k],
		})
	}
	for w := 0; w < 12; w++ {
		for i := 1; i <= nTasks; i++ {
			if (i+w)%3 == 0 {
				continue // uneven coverage
			}
			if err := pool.Record(core.Answer{
				Task: core.TaskID(i), Worker: fmt.Sprintf("m-w%02d", w), Option: (i * (w + 1)) % k,
			}); err != nil {
				t.Fatalf("seed record: %v", err)
			}
		}
	}
	return pool
}

// TestAppendDeltaMatchesFromPool is the correctness contract of the
// incremental build: extending a dataset, delta after delta, with the
// answers recorded since its snapshot must be indistinguishable — down to
// the dense CSR layout — from rebuilding with FromPool over the grown
// pool, and both must equal the naive reference. Anything less and the
// incremental serving path could diverge from the full path.
func TestAppendDeltaMatchesFromPool(t *testing.T) {
	const nTasks, k = 40, 3
	pool := seedPool(t, nTasks, k)
	ids := pool.TaskIDs()
	chain, err := FromPool(pool, ids)
	if err != nil {
		t.Fatalf("FromPool: %v", err)
	}
	sameDataset(t, "FromPool over the seed pool", chain, referenceLayout(pool, ids, k))

	// 24 deltas. Each brings back an existing worker on a task they had
	// skipped; most also bring new workers whose names sort before
	// ("a-"), between ("m-w05x") and after ("z-") the existing ones, so
	// the old→new worker remap runs with every shape of shift; every
	// fourth brings none, so the no-remap path runs too. Some tasks grow
	// twice within one delta, and some answers carry an out-of-range
	// option, which never enters the pool via the serving layer but which
	// FromPool filters, so AppendDelta must too.
	for round := 0; round < 24; round++ {
		var delta []core.Answer
		record := func(a core.Answer) {
			t.Helper()
			if err := pool.Record(a); err != nil {
				t.Fatalf("round %d record: %v", round, err)
			}
			delta = append(delta, a)
		}
		task := func(j int) core.TaskID { return core.TaskID((round*7+j*11)%nTasks + 1) }
		w := round % 12 // who skipped the tasks i with (i+w)%3 == 0
		record(core.Answer{Task: core.TaskID((3-w%3)%3 + 3*(1+round/12)), Worker: fmt.Sprintf("m-w%02d", w), Option: 1})
		if round%4 != 3 {
			for j, prefix := range []string{"z-", "a-", "m-w05x"} {
				w := fmt.Sprintf("%s%02d", prefix, round)
				record(core.Answer{Task: task(j), Worker: w, Option: (round + j) % k})
				record(core.Answer{Task: task(j + 1), Worker: w, Option: j % k})
			}
		}
		if round%5 == 0 {
			delta = append(delta, core.Answer{Task: task(2), Worker: "out-of-range", Option: k})
		}

		frozen := *chain // what the base looks like before it is extended
		frozen.WorkerIDs = append([]string(nil), chain.WorkerIDs...)
		frozen.refs = append([]answerRef(nil), chain.refs...)
		frozen.taskOff = append([]int32(nil), chain.taskOff...)
		frozen.wAns = append([]int32(nil), chain.wAns...)
		frozen.wOff = append([]int32(nil), chain.wOff...)
		next, err := chain.AppendDelta(delta)
		if err != nil {
			t.Fatalf("round %d AppendDelta: %v", round, err)
		}
		sameDataset(t, fmt.Sprintf("base of delta %d, which AppendDelta must not mutate", round), chain, &frozen)
		chain = next

		what := fmt.Sprintf("chain after delta %d", round)
		sameDataset(t, what, chain, referenceLayout(pool, ids, k))
		rebuilt, err := FromPool(pool, ids)
		if err != nil {
			t.Fatalf("FromPool: %v", err)
		}
		sameDataset(t, what+" vs FromPool", chain, rebuilt)
	}

	// Same inference input ⇒ same inference output, bit for bit.
	rebuilt, _ := FromPool(pool, ids)
	for _, inf := range []Inferrer{MajorityVote{}, WeightedMajorityVote{Weights: map[string]float64{"a-00": 0.9}},
		OneCoinEM{}, DawidSkene{}, GLAD{}} {
		rg, err := inf.Infer(chain)
		if err != nil {
			t.Fatalf("%s over delta dataset: %v", inf.Name(), err)
		}
		rw, err := inf.Infer(rebuilt)
		if err != nil {
			t.Fatalf("%s over rebuilt dataset: %v", inf.Name(), err)
		}
		sameInference(t, inf.Name()+" delta vs rebuilt", rg, rw)
	}
}

func TestAppendDeltaRejectsUnknownTask(t *testing.T) {
	_, base := buildWorkload(12, 10, 6, 2, crowd.Mix{Reliable: 1}, 0.5)
	if _, err := base.AppendDelta([]core.Answer{{Task: 999, Worker: "w", Option: 0}}); err == nil {
		t.Fatal("delta answer for a task outside the dataset must error")
	}
}

func TestAppendDeltaEmptySharesLayout(t *testing.T) {
	_, base := buildWorkload(13, 10, 6, 2, crowd.Mix{Reliable: 1}, 0.5)
	nd, err := base.AppendDelta(nil)
	if err != nil {
		t.Fatalf("AppendDelta(nil): %v", err)
	}
	if &nd.TaskIDs[0] != &base.TaskIDs[0] || &nd.WorkerIDs[0] != &base.WorkerIDs[0] {
		t.Fatal("empty delta should share task and worker slices with the base")
	}
	sameDataset(t, "empty delta", nd, base)
}

// TestWarmSeedCopyMatchesLookup: a warm state seeds a dataset that shares
// the producing dataset's index slices with one copy per array, and any
// other dataset entity by entity. Both must start EM from the same
// numbers — checked on the seeded slab and on the posteriors after one
// iteration — and after a task-set change the tasks the state has never
// seen must start cold.
func TestWarmSeedCopyMatchesLookup(t *testing.T) {
	pool := seedPool(t, 60, 2)
	ds1, err := FromPool(pool, pool.TaskIDs())
	if err != nil {
		t.Fatal(err)
	}
	delta := []core.Answer{
		{Task: ds1.TaskIDs[3], Worker: ds1.WorkerIDs[0] + "-late", Option: 1},
		{Task: ds1.TaskIDs[7], Worker: "0-early", Option: 0},
	}
	for _, a := range delta {
		if err := pool.Record(a); err != nil {
			t.Fatal(err)
		}
	}
	shared, err := ds1.AppendDelta(delta) // shares ds1.TaskIDs: slab copy
	if err != nil {
		t.Fatal(err)
	}
	rebuilt, err := FromPool(pool, pool.TaskIDs()) // its own slices: per-entity lookup
	if err != nil {
		t.Fatal(err)
	}
	// A task-set change: the same pool plus two tasks the state never saw,
	// one answered and one not, listed first so every dense index shifts.
	for id, answered := range map[core.TaskID]bool{9001: true, 9002: false} {
		pool.MustAdd(&core.Task{ID: id, Kind: core.SingleChoice, Options: []string{"a", "b"}})
		if answered {
			if err := pool.Record(core.Answer{Task: id, Worker: "0-early", Option: 1}); err != nil {
				t.Fatal(err)
			}
		}
	}
	grownIDs := append([]core.TaskID{9002, 9001}, ds1.TaskIDs...)
	grown, err := FromPool(pool, grownIDs)
	if err != nil {
		t.Fatal(err)
	}

	for _, m := range []struct {
		name string
		make func(warm *WarmState, maxIter int) Inferrer
	}{
		{"OneCoinEM", func(w *WarmState, n int) Inferrer { return OneCoinEM{Warm: w, MaxIter: n} }},
		{"DS", func(w *WarmState, n int) Inferrer { return DawidSkene{Warm: w, MaxIter: n} }},
		{"GLAD", func(w *WarmState, n int) Inferrer { return GLAD{Warm: w, MaxIter: n} }},
	} {
		prev, err := m.make(nil, 0).Infer(ds1)
		if err != nil {
			t.Fatal(err)
		}
		warm := prev.Warm
		K := ds1.K
		seedCopy, seedLookup := make([]float64, len(shared.TaskIDs)*K), make([]float64, len(rebuilt.TaskIDs)*K)
		if !seedPosteriors(shared, seedCopy, m.name, warm) || !seedPosteriors(rebuilt, seedLookup, m.name, warm) {
			t.Fatalf("%s: warm state not used", m.name)
		}
		if !reflect.DeepEqual(seedCopy, seedLookup) || !reflect.DeepEqual(seedCopy, warm.post) {
			t.Fatalf("%s: slab copy and per-task lookup seed different posteriors", m.name)
		}
		first := func(ds *Dataset) *Result {
			res, err := m.make(warm, 1).Infer(ds)
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		sameInference(t, m.name+" first warm iteration, copy vs lookup", first(shared), first(rebuilt))

		seedGrown := make([]float64, len(grown.TaskIDs)*K)
		seedPosteriors(grown, seedGrown, m.name, warm)
		cold := make([]float64, K)
		for ti, id := range grown.TaskIDs {
			want := cold
			if pi := ds1.TaskIndex(id); pi >= 0 {
				want = warm.post[pi*K : pi*K+K]
			} else {
				initPosteriorRow(grown, ti, cold)
			}
			if !reflect.DeepEqual(seedGrown[ti*K:ti*K+K], want) {
				t.Fatalf("%s: task %d seeded %v after a task-set change, want %v", m.name, id, seedGrown[ti*K:ti*K+K], want)
			}
		}
		if _, err := m.make(warm, 0).Infer(grown); err != nil {
			t.Fatalf("%s over the grown task set: %v", m.name, err)
		}
	}
}

// TestDeltaPollAllocsIndependentOfTaskCount guards the steady-state poll —
// extend the dataset by a small delta, re-estimate warm — against
// per-task allocations creeping back in (a map entry, a posterior row or a
// slice header per task): the count must be small and the same at 200
// tasks as at 2,000.
func TestDeltaPollAllocsIndependentOfTaskCount(t *testing.T) {
	defer func(p, s int) { inferParallelism, serialAnswerThreshold = p, s }(inferParallelism, serialAnswerThreshold)
	inferParallelism, serialAnswerThreshold = 1, 0
	poll := func(nTasks int) float64 {
		_, base := buildWorkload(31, nTasks, 8, 2, crowd.Mix{Reliable: 1}, 0.5)
		prev, err := OneCoinEM{}.Infer(base)
		if err != nil {
			t.Fatal(err)
		}
		delta := make([]core.Answer, 10)
		for i := range delta {
			delta[i] = core.Answer{Task: base.TaskIDs[i*7], Worker: base.WorkerIDs[i%len(base.WorkerIDs)], Option: i % 2}
		}
		return testing.AllocsPerRun(10, func() {
			ds, err := base.AppendDelta(delta)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := (OneCoinEM{Warm: prev.Warm, MaxIter: 3}).Infer(ds); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := poll(200), poll(2000)
	t.Logf("allocations per delta poll: %.0f at 200 tasks, %.0f at 2000", small, large)
	if small != large || large > 40 {
		t.Fatalf("delta poll allocates %.0f times at 200 tasks and %.0f at 2000; want equal and <= 40", small, large)
	}
}
