package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"time"
)

// refPool restates the pool's platform rules over plain maps, one per
// concern, the way the pool kept them before it held one entry per task.
// TestPoolMatchesReferenceModel drives it and a Pool with the same calls.
type refPool struct {
	tasks     map[TaskID]*Task
	order     []TaskID
	answers   map[TaskID][]Answer
	perWorker map[string]map[TaskID]int
	closed    map[TaskID]bool
	leases    map[TaskID]map[string]time.Time
}

func newRefPool() *refPool {
	return &refPool{
		tasks:     map[TaskID]*Task{},
		answers:   map[TaskID][]Answer{},
		perWorker: map[string]map[TaskID]int{},
		closed:    map[TaskID]bool{},
		leases:    map[TaskID]map[string]time.Time{},
	}
}

func (r *refPool) add(t *Task) {
	r.tasks[t.ID] = t
	r.order = append(r.order, t.ID)
}

func (r *refPool) record(a Answer) error {
	t := r.tasks[a.Task]
	switch n := r.perWorker[a.Worker][a.Task]; {
	case t == nil:
		return fmt.Errorf("unknown task")
	case r.closed[a.Task]:
		return fmt.Errorf("closed task")
	case (t.Kind == MultiChoice || t.Kind == Collection) && n >= MaxRepeatAnswers:
		return errRefCap
	case t.Kind != MultiChoice && t.Kind != Collection && n > 0:
		return fmt.Errorf("already answered")
	}
	if r.perWorker[a.Worker] == nil {
		r.perWorker[a.Worker] = map[TaskID]int{}
	}
	r.perWorker[a.Worker][a.Task]++
	r.answers[a.Task] = append(r.answers[a.Task], a)
	delete(r.leases[a.Task], a.Worker)
	return nil
}

var errRefCap = errors.New("resubmission cap")

func (r *refPool) close(id TaskID) {
	if r.tasks[id] != nil {
		r.closed[id] = true
		delete(r.leases, id)
	}
}

func (r *refPool) lease(id TaskID, worker string, deadline time.Time) error {
	if r.tasks[id] == nil || r.closed[id] {
		return fmt.Errorf("unknown or closed task")
	}
	if r.leases[id] == nil {
		r.leases[id] = map[string]time.Time{}
	}
	r.leases[id][worker] = deadline
	return nil
}

func (r *refPool) expire(now time.Time) []Lease {
	var out []Lease
	for id, m := range r.leases {
		for w, d := range m {
			if !d.After(now) {
				out = append(out, Lease{Task: id, Worker: w, Deadline: d})
				delete(m, w)
			}
		}
	}
	sortLeases(out)
	return out
}

func (r *refPool) eligibleFor(worker string) []TaskID {
	out := []TaskID{}
	for _, id := range r.order {
		if !r.closed[id] && r.perWorker[worker][id] == 0 {
			out = append(out, id)
		}
	}
	return out
}

// leastInFlight is FewestAnswers' choice spelled out: the first eligible
// task with the smallest answers + leases.
func (r *refPool) leastInFlight(worker string) (TaskID, bool) {
	el := r.eligibleFor(worker)
	if len(el) == 0 {
		return 0, false
	}
	best := el[0]
	for _, id := range el[1:] {
		if len(r.answers[id])+len(r.leases[id]) < len(r.answers[best])+len(r.leases[best]) {
			best = id
		}
	}
	return best, true
}

func (r *refPool) openTasks() []TaskID {
	out := []TaskID{}
	for _, id := range r.order {
		if !r.closed[id] {
			out = append(out, id)
		}
	}
	return out
}

func (r *refPool) workers() []string {
	out := []string{}
	for w := range r.perWorker {
		out = append(out, w)
	}
	sort.Strings(out)
	return out
}

func (r *refPool) optionVotes(id TaskID) []int {
	t := r.tasks[id]
	if t == nil || len(t.Options) == 0 {
		return nil
	}
	votes := make([]int, len(t.Options))
	for _, a := range r.answers[id] {
		votes[a.Option]++
	}
	return votes
}

// randomTask draws a task of single-choice, pairwise or one of the
// repeatable kinds, so the MaxRepeatAnswers cap can be reached.
func randomTask(rng *rand.Rand) *Task {
	kinds := []TaskKind{SingleChoice, MultiChoice, Collection, PairwiseComparison}
	task := &Task{Kind: kinds[rng.Intn(len(kinds))], Question: "q"}
	if task.Kind != Collection {
		task.Options = []string{"a", "b"}
		if task.Kind != PairwiseComparison {
			task.Options = append(task.Options, "c")
		}
	}
	return task
}

// TestPoolMatchesReferenceModel drives seeded random sequences of Add,
// Record, Close, Lease, ExpireLeases and Grow (after a Reserve, for half
// the seeds) into a Pool and into
// refPool, over single-choice, pairwise and the repeatable kinds (so the
// MaxRepeatAnswers cap is reached), and after every step checks that the
// two agree on whether the call was refused and on every per-worker and
// per-task read: HasAnswered, EligibleFor, LeastInFlight, OpenTasks,
// InFlight, Workers, OptionVotes and the answers themselves.
//
// The first three tasks, a single-choice, a MultiChoice and a Collection
// task, stay open and take half of the answers, from a crowd of 1,000
// workers beside four regulars, so they cross voterScanMax: the
// single-choice task is answered by more than voterScanMax workers, and on
// each repeatable task a regular hits the cap both before and after the
// task crosses the bound.
func TestPoolMatchesReferenceModel(t *testing.T) {
	regulars := []string{"w0", "w1", "w2", "w3"}
	crowd := make([]string, 1000)
	for i := range crowd {
		crowd[i] = fmt.Sprintf("c%d", i)
	}
	hot := []TaskKind{SingleChoice, MultiChoice, Collection}
	cappedAt := map[[2]any]bool{}    // (kind, past the bound) of each cap refusal
	mostVoters := map[TaskKind]int{} // the most answers a hot task reached
	for seed := int64(1); seed <= 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p, ref := NewPool(), newRefPool()
		if seed%2 == 0 {
			p.Reserve(rng.Intn(40), rng.Intn(400)) // what a bulk load would: carving changes no read
		}
		capped := 0 // refusals at the MaxRepeatAnswers cap, which the run must reach
		now := time.Unix(1e9, 0)
		pick := func() TaskID { // an added task, or now and then one that is not
			if len(ref.order) == 0 || rng.Intn(20) == 0 {
				return TaskID(1000 + rng.Intn(3))
			}
			if len(ref.order) >= len(hot) && rng.Intn(2) == 0 {
				return ref.order[rng.Intn(len(hot))]
			}
			return ref.order[rng.Intn(len(ref.order))]
		}
		for step := 0; step < 1000; step++ {
			now = now.Add(time.Second)
			worker := regulars[rng.Intn(len(regulars))]
			if rng.Intn(2) == 0 {
				worker = crowd[rng.Intn(len(crowd))]
			}
			var op string
			switch r := rng.Intn(100); {
			case r < 2 || len(ref.order) < len(hot):
				op = "add"
				task := randomTask(rng)
				if n := len(ref.order); n < len(hot) {
					task = &Task{Kind: hot[n], Question: "q", Options: []string{"a", "b", "c"}}
				}
				id, err := p.Add(task)
				if err != nil {
					t.Fatalf("seed %d step %d: Add: %v", seed, step, err)
				}
				ref.add(task)
				if id != task.ID {
					t.Fatalf("seed %d step %d: Add returned %d for task %d", seed, step, id, task.ID)
				}
			case r < 70:
				id := pick()
				a := Answer{Task: id, Worker: worker}
				if task := ref.tasks[id]; task != nil && len(task.Options) > 0 {
					a.Option = rng.Intn(len(task.Options))
				}
				op = fmt.Sprintf("record %+v", a)
				before := len(ref.answers[id])
				got, want := p.Record(a), ref.record(a)
				if (got == nil) != (want == nil) {
					t.Fatalf("seed %d step %d: %s: pool says %v, model %v", seed, step, op, got, want)
				}
				if want == errRefCap {
					capped++
					cappedAt[[2]any{ref.tasks[id].Kind, before > voterScanMax}] = true
				}
				if task := ref.tasks[id]; task != nil {
					mostVoters[task.Kind] = max(mostVoters[task.Kind], len(ref.answers[id]))
				}
			case r < 71:
				id := pick()
				if slices.Index(ref.order, id) < len(hot) {
					break // the hot tasks stay open to cross the bound
				}
				op = fmt.Sprintf("close %d", id)
				p.Close(id)
				ref.close(id)
			case r < 88:
				id, deadline := pick(), now.Add(time.Duration(1+rng.Intn(5))*time.Second)
				op = fmt.Sprintf("lease %d to %s", id, worker)
				if got, want := p.Lease(id, worker, deadline), ref.lease(id, worker, deadline); (got == nil) != (want == nil) {
					t.Fatalf("seed %d step %d: %s: pool says %v, model %v", seed, step, op, got, want)
				}
			case r < 96:
				op = "expire"
				if got, want := p.ExpireLeases(now), ref.expire(now); len(got)+len(want) > 0 && !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d step %d: expired %v, model %v", seed, step, got, want)
				}
			default:
				id, n := pick(), rng.Intn(4)
				if rng.Intn(4) == 0 {
					n = voterScanMax
				}
				op = fmt.Sprintf("grow %d by %d", id, n)
				p.Grow(id, n)
			}

			check := func(got, want any, what string, args ...any) {
				t.Helper()
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d step %d, after %s: %s = %v, model %v", seed, step, op, fmt.Sprintf(what, args...), got, want)
				}
			}
			check(p.OpenTasks(), ref.openTasks(), "OpenTasks")
			check(p.Workers(), ref.workers(), "Workers")
			// The regulars, this step's worker and one drawn from the crowd.
			workers := append(regulars[:len(regulars):len(regulars)], worker, crowd[rng.Intn(len(crowd))])
			for _, w := range workers {
				check(p.EligibleFor(w), ref.eligibleFor(w), "EligibleFor(%s)", w)
				id, ok := p.LeastInFlight(w)
				wantID, wantOK := ref.leastInFlight(w)
				check([2]any{id, ok}, [2]any{wantID, wantOK}, "LeastInFlight(%s)", w)
			}
			for _, id := range ref.order {
				for _, w := range workers {
					check(p.HasAnswered(w, id), ref.perWorker[w][id] > 0, "HasAnswered(%s, %d)", w, id)
				}
				check(p.InFlight(id), len(ref.answers[id])+len(ref.leases[id]), "InFlight(%d)", id)
				check(p.OptionVotes(id), ref.optionVotes(id), "OptionVotes(%d)", id)
				check(slices.Equal(p.Answers(id), ref.answers[id]), true, "Answers(%d) equal", id)
				check(p.Closed(id), ref.closed[id], "Closed(%d)", id)
			}
		}
		if capped == 0 {
			t.Fatalf("seed %d: no answer reached the MaxRepeatAnswers cap", seed)
		}
	}
	if mostVoters[SingleChoice] <= voterScanMax {
		t.Errorf("no single-choice task took more than %d answers (most: %d)", voterScanMax, mostVoters[SingleChoice])
	}
	for _, kind := range []TaskKind{MultiChoice, Collection} {
		for _, past := range []bool{false, true} {
			if !cappedAt[[2]any{kind, past}] {
				t.Errorf("no %v answer was refused at the MaxRepeatAnswers cap with the task past the %d-answer bound = %v", kind, voterScanMax, past)
			}
		}
	}
}

// captureJournal keeps every mutation its pool journals, in order.
type captureJournal struct{ muts []*Mutation }

func (j *captureJournal) Append(_ context.Context, m *Mutation) (uint64, error) {
	j.muts = append(j.muts, m)
	return uint64(len(j.muts)), nil
}

// routeTo splits a journaled mutation into the part each of n shards
// owns, as recovery routes a mutation journaled under another layout.
func routeTo(m *Mutation, n int) map[int]*Mutation {
	parts := map[int]*Mutation{}
	part := func(id TaskID) *Mutation {
		si := ShardIndex(id, n)
		if parts[si] == nil {
			parts[si] = &Mutation{Kind: m.Kind, Batch: m.Batch}
		}
		return parts[si]
	}
	switch m.Kind {
	case MutAnswers:
		for _, a := range m.Answers {
			p := part(a.Task)
			p.Answers = append(p.Answers, a)
		}
	case MutLease, MutExpire:
		for _, l := range m.Leases {
			p := part(l.Task)
			p.Leases = append(p.Leases, l)
		}
	default:
		m.Tasks(func(id TaskID) { parts[ShardIndex(id, n)] = m })
	}
	return parts
}

// poolImage is what replay must rebuild: tasks in ID order with their
// answers in arrival order, closes, and leases.
type poolImage struct {
	Tasks   []*Task
	Answers map[TaskID][]Answer
	Closed  map[TaskID]bool
	Leases  []Lease
}

func imageOfPool(sp *ShardedPool) poolImage {
	p := flat(sp)
	img := poolImage{Answers: map[TaskID][]Answer{}, Closed: map[TaskID]bool{}, Leases: p.Leases()}
	for _, id := range p.TaskIDs() {
		img.Tasks = append(img.Tasks, p.Task(id))
		img.Answers[id] = p.Answers(id)
		img.Closed[id] = p.Closed(id)
	}
	return img
}

// TestReplayMatchesLivePool: seeded random Add, Record, RecordBatch,
// Close, AssignLease and ExpireLeases calls — refused ones included — on a
// 3-shard pool whose journal captures every mutation. Replaying the
// captured mutations through Pool.Replay into fresh pools of 1, 2 and 4
// shards, each mutation split among the shards that own its tasks as
// recovery splits it, rebuilds the live pool: the same tasks, answers in
// order, closes, leases and next task ID.
func TestReplayMatchesLivePool(t *testing.T) {
	ctx := context.Background()
	workers := []string{"w0", "w1", "w2", "w3"}
	for seed := int64(1); seed <= 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		j := &captureJournal{}
		live := ShardedFrom([]*Pool{NewPool(), NewPool(), NewPool()}, j)
		var ids []TaskID
		now := time.Unix(1e9, 0)
		answer := func() Answer {
			a := Answer{Task: ids[rng.Intn(len(ids))], Worker: workers[rng.Intn(len(workers))]}
			if n := len(live.Task(a.Task).Options); n > 0 {
				a.Option = rng.Intn(n)
			}
			return a
		}
		for step := 0; step < 800; step++ {
			now = now.Add(time.Second)
			switch r := rng.Intn(100); {
			case r < 5 || len(ids) == 0:
				id, err := live.Add(randomTask(rng))
				if err != nil {
					t.Fatal(err)
				}
				ids = append(ids, id)
			case r < 45:
				_, _ = live.Record(ctx, answer(), nil)
			case r < 65:
				as := []Answer{answer()}
				for len(as) < 4 && rng.Intn(2) == 0 {
					as = append(as, answer())
				}
				live.RecordBatch(live.ShardFor(as[0].Task), as, nil)
			case r < 68:
				if err := live.Close(ids[rng.Intn(len(ids))]); err != nil {
					t.Fatal(err)
				}
			case r < 88:
				id := ids[rng.Intn(len(ids))]
				pick := AssignerFunc(func(p *Pool, _ string) (TaskID, bool) { return id, p.Task(id) != nil })
				if _, _, err := live.AssignLease(pick, workers[rng.Intn(len(workers))], now.Add(time.Duration(1+rng.Intn(60))*time.Second)); err != nil {
					t.Fatal(err)
				}
			default:
				if _, err := live.ExpireLeases(now); err != nil {
					t.Fatal(err)
				}
			}
		}
		want := imageOfPool(live)
		kinds := map[MutationKind]bool{}
		for _, m := range j.muts {
			kinds[m.Kind] = true
		}
		if len(kinds) != 5 || len(want.Leases) == 0 {
			t.Fatalf("seed %d: the history journaled %d kinds of mutation and left %d leases; want all 5 and some", seed, len(kinds), len(want.Leases))
		}
		next, err := live.Add(randomTask(rng))
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{1, 2, 4} {
			parts := make([]*Pool, n)
			for i := range parts {
				parts[i] = NewPool()
			}
			for _, m := range j.muts[:len(j.muts)-1] {
				for si, part := range routeTo(m, n) {
					if err := parts[si].Replay(part); err != nil {
						t.Fatalf("seed %d, %d shards: replaying %+v: %v", seed, n, *part, err)
					}
				}
			}
			replayed := ShardedFrom(parts, nil)
			if got := imageOfPool(replayed); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d, %d shards: replay rebuilt\n %+v\nthe live pool is\n %+v", seed, n, got, want)
			}
			if id, err := replayed.Add(randomTask(rng)); err != nil || id != next {
				t.Fatalf("seed %d, %d shards: the replayed pool's next task is %d (err %v), the live pool's %d", seed, n, id, err, next)
			}
		}
	}
}
