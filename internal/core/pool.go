package core

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"time"
)

// Pool holds the open tasks of a crowdsourcing run together with the
// answers collected so far. It is the shared blackboard between the
// platform loop, assignment policies, and truth inference.
//
// Each task has one entry (taskEntry): the task, its answers in arrival
// order, its closed flag and its voters, so every per-task call pays one
// map lookup, and scans in insertion order (OpenTasks, EligibleFor) walk
// the entries without any; LeastInFlight pays one only for a task that
// beats the best so far. Voters are worker ordinals from the pool's one
// worker table, so a scan looks its worker up once, not once per task.
// Grow sizes an entry ahead of a known number of answers, and Reserve
// sizes the whole pool ahead of a bulk load; recovery uses both so that
// every task's answers and voters are allocated once, out of one array
// per shard.
//
// Pool is not safe for concurrent use; it stays lock-free so simulator
// hot loops pay no synchronization cost. The serving layer holds one Pool
// per shard of a ShardedPool, which locks it; assigners, truth inference
// and journal replay read and fill those per-shard Pools directly.
type Pool struct {
	tasks   map[TaskID]*taskEntry
	order   []TaskID     // insertion order, for deterministic iteration
	entries []*taskEntry // entries[i] is tasks[order[i]]
	// leases tracks outstanding assignments per task: worker -> deadline.
	// See lease.go for the lease state machine.
	leases map[TaskID]map[string]time.Time
	// leaseHeap orders outstanding lease deadlines so expiry sweeps pay
	// O(expired · log n) instead of scanning every lease. Entries for
	// consumed or extended leases are deleted lazily; see ExpireLeases.
	leaseHeap []leaseEntry
	nextID    TaskID
	// workers numbers every worker that answered a task of the pool from
	// 1, in the order of their first answers; the voters of a task hold
	// these ordinals, and 0 is a worker that answered nothing yet.
	workers map[string]int32
	// counts counts the answers per ordinal of each task that holds more
	// than voterScanMax of them. It lives here, not in taskEntry, so that
	// an entry fits one 64-byte cache line for LeastInFlight's scan.
	counts map[TaskID]map[int32]int32
	// What Reserve set aside and Grow and insert have not used yet: the
	// entries of the tasks to come, and the answer and voter arrays
	// their answers are carved from.
	entrySlab  []taskEntry
	answerSlab []Answer
	voterSlab  []int32
}

// taskEntry is everything the pool holds about one task.
type taskEntry struct {
	task    *Task
	answers []Answer
	// voters[i] is the ordinal of answers[i].Worker, scanned to enforce the
	// one-answer-per-worker rule (for the repeatable kinds, the
	// MaxRepeatAnswers cap) while the task holds at most voterScanMax
	// answers; past that, Pool.counts answers the check.
	voters []int32
	closed bool
}

// voterScanMax is how many answers a task's voter check scans. Redundancy
// rarely asks more of a task, but enumeration (Collection) takes answers
// without bound, as can a hostile client; counts keep the check O(1).
const voterScanMax = 64

// votes returns how many answers the worker with ordinal o gave the task
// of e.
func (p *Pool) votes(e *taskEntry, o int32) int {
	if o == 0 {
		return 0
	}
	if len(e.voters) > voterScanMax {
		return int(p.counts[e.task.ID][o])
	}
	n := 0
	for _, v := range e.voters {
		if v == o {
			n++
		}
	}
	return n
}

// NewPool returns an empty pool.
func NewPool() *Pool {
	return &Pool{
		tasks:   make(map[TaskID]*taskEntry),
		leases:  make(map[TaskID]map[string]time.Time),
		workers: make(map[string]int32),
		counts:  make(map[TaskID]map[int32]int32),
	}
}

// Add validates t, assigns it a fresh ID if it has none (ID 0 with an
// existing task 0 present counts as unset), and registers it. It returns
// the task's ID; an ID it settled on stays used if the task fails
// validation.
func (p *Pool) Add(t *Task) (TaskID, error) {
	_, taken := p.tasks[t.ID]
	settleID(t, taken, len(p.tasks) > 0, &p.nextID)
	if err := p.mutate(&Mutation{Kind: MutAddTask, Task: t}); err != nil {
		return 0, err
	}
	return t.ID, nil
}

// settleID is the ID rule of Add, shared by Pool and ShardedPool: an ID
// that is taken, or ID 0 once the pool holds tasks, is replaced by *next,
// and *next moves past whatever ID t ends up with.
func settleID(t *Task, taken, nonEmpty bool, next *TaskID) {
	if taken || t.ID == 0 && nonEmpty {
		t.ID = *next
	}
	if t.ID >= *next {
		*next = t.ID + 1
	} else if t.ID == 0 {
		t.ID = *next
		*next++
	}
}

// insert registers a task check accepted, and moves the next free ID
// past it.
func (p *Pool) insert(t *Task) {
	var e *taskEntry
	if len(p.entrySlab) > 0 {
		e, p.entrySlab = &p.entrySlab[0], p.entrySlab[1:]
	} else {
		e = new(taskEntry)
	}
	e.task = t
	p.tasks[t.ID] = e
	p.order = append(p.order, t.ID)
	p.entries = append(p.entries, e)
	p.nextID = max(p.nextID, t.ID+1)
}

// MustAdd adds and panics on error; for tests and generators.
func (p *Pool) MustAdd(t *Task) TaskID {
	id, err := p.Add(t)
	if err != nil {
		panic(err)
	}
	return id
}

// Task returns the task with the given id, or nil.
func (p *Pool) Task(id TaskID) *Task {
	if e := p.tasks[id]; e != nil {
		return e.task
	}
	return nil
}

// Len returns the number of tasks.
func (p *Pool) Len() int { return len(p.tasks) }

// TaskIDs returns all task ids in insertion order. The caller must not
// mutate the returned slice.
func (p *Pool) TaskIDs() []TaskID { return p.order }

// Reserve is a capacity hint for a bulk load into an empty pool, like
// Grow for the whole pool: it sizes the task table for tasks tasks (on a
// pool that holds some, only its insertion-order slices), and sets aside
// the entries of those tasks and one array each of answers answers and
// voters, out of which Grow carves every task's arrays. It never changes
// what the pool holds. A reservation lasts until it is used up or the
// next Reserve replaces it; Grow falls back to an array of its own for a
// task the rest of it cannot hold.
//
// Carving trades a little memory for one allocation per array instead of
// one per task: a carved array lives as long as any task still uses its
// own part of it. A task that outgrows its part (an answer recorded after
// the load) reallocates alone and leaves that part behind, so what the
// load's arrays can keep alive beyond what the pool uses is bounded by
// their own size, the answers and voters reserved.
func (p *Pool) Reserve(tasks, answers int) {
	if len(p.tasks) == 0 {
		p.tasks = make(map[TaskID]*taskEntry, tasks)
	}
	p.order = slices.Grow(p.order, tasks)
	p.entries = slices.Grow(p.entries, tasks)
	p.entrySlab = make([]taskEntry, tasks)
	p.answerSlab = make([]Answer, answers)
	p.voterSlab = make([]int32, answers)
}

// Grow is a capacity hint, like slices.Grow: it sizes task id's answers
// and voters for n more answers, so that the next n answers recorded on it
// reallocate neither. It never changes what the pool holds; an unknown
// task or n <= 0 leaves the pool as it is. The new arrays are carved out
// of what Reserve set aside while it lasts; a task that later outgrows
// its part leaves it behind, and all such parts together are at most the
// answer and voter arrays Reserve made (see Reserve).
func (p *Pool) Grow(id TaskID, n int) {
	e := p.tasks[id]
	if e == nil || n <= 0 {
		return
	}
	// The capacity stays exactly what was asked for instead of rounding
	// up to an allocation size class, and a carved array ends where the
	// task's part does, so an append past it reallocates only this task.
	if cap(e.answers)-len(e.answers) < n {
		e.answers = append(carve(&p.answerSlab, len(e.answers)+n), e.answers...)
	}
	if cap(e.voters)-len(e.voters) < n {
		e.voters = append(carve(&p.voterSlab, len(e.voters)+n), e.voters...)
	}
}

// carve returns an empty slice of capacity n cut from the front of *slab
// with a full slice expression, or a new array when *slab holds fewer
// than n elements. A slab all carved is dropped, so the pool holds no
// pointer into it.
func carve[T any](slab *[]T, n int) []T {
	if len(*slab) < n {
		return make([]T, 0, n)
	}
	s := (*slab)[:0:n]
	if *slab = (*slab)[n:]; len(*slab) == 0 {
		*slab = nil
	}
	return s
}

// MaxRepeatAnswers caps how many answers one worker may submit for one
// repeatable (MultiChoice, Collection) task. Legitimate uses stay small —
// one answer per selected option, a handful of collected items — while an
// uncapped task lets a retrying or hostile client charge the budget
// arbitrarily many times for the same assignment.
const MaxRepeatAnswers = 8

// Record stores an answer after checking the platform rules: the task must
// exist, must be open, and the worker must not have answered it before
// (repeatable kinds allow up to MaxRepeatAnswers submissions).
func (p *Pool) Record(a Answer) error { return p.record(a, false) }

// record checks and applies one answer; closedOK admits a closed task.
func (p *Pool) record(a Answer, closedOK bool) error {
	e, o, err := p.checkRecord(a, 0, closedOK)
	if err != nil {
		return err
	}
	p.applyRecord(e, a, o)
	return nil
}

// checkRecord is the validation half of Record; it returns the entry of
// the answer's task and the worker's ordinal for applyRecord. pending
// counts answers by the same worker on the same task that were accepted
// but not applied yet (earlier items of one batch); closedOK admits a
// closed task.
func (p *Pool) checkRecord(a Answer, pending int, closedOK bool) (*taskEntry, int32, error) {
	e := p.tasks[a.Task]
	if e == nil {
		return nil, 0, fmt.Errorf("core: answer for unknown task %d", a.Task)
	}
	if e.closed && !closedOK {
		return nil, 0, fmt.Errorf("core: answer for closed task %d", a.Task)
	}
	o := p.workers[a.Worker]
	n := p.votes(e, o) + pending
	if k := e.task.Kind; k == MultiChoice || k == Collection {
		if n >= MaxRepeatAnswers {
			return nil, 0, fmt.Errorf("core: worker %s hit the %d-answer resubmission cap on task %d",
				a.Worker, MaxRepeatAnswers, a.Task)
		}
	} else if n > 0 {
		return nil, 0, fmt.Errorf("core: worker %s already answered task %d", a.Worker, a.Task)
	}
	return e, o, nil
}

// Replay checks and applies a mutation read back from a journal with the
// functions the live shard paths use. Answers are checked and applied one
// at a time, so each is checked against the ones before it in its batch
// as the live batch path's pending counts did, and may land on a closed
// task: logs written before answers were journaled under the shard lock
// can hold a question's last answer behind the close its arrival
// triggered, and dropping it would leave the recovered pool one answer
// short of the spend that paid for it.
func (p *Pool) Replay(m *Mutation) error {
	if m.Kind != MutAnswers {
		return p.mutate(m)
	}
	for _, a := range m.Answers {
		if err := p.record(a, true); err != nil {
			return err
		}
	}
	return nil
}

// mutate checks m and, if the pool accepts it, applies it.
func (p *Pool) mutate(m *Mutation) error {
	if err := p.check(m); err != nil {
		return err
	}
	p.apply(m)
	return nil
}

// check is the validation half of a mutation: it reports why the pool
// refuses m, or nil. Answers are validated one at a time by checkRecord.
func (p *Pool) check(m *Mutation) error {
	switch m.Kind {
	case MutAddTask:
		if p.tasks[m.Task.ID] != nil {
			return fmt.Errorf("core: task %d added twice", m.Task.ID)
		}
		return m.Task.Validate()
	case MutClose:
		if e := p.tasks[m.ID]; e == nil || e.closed {
			return fmt.Errorf("core: close of task %d, which is unknown or closed", m.ID)
		}
		return nil
	case MutLease:
		return p.checkLease(m.Leases[0])
	case MutExpire:
		for _, l := range m.Leases {
			if !p.HasLease(l.Worker, l.Task) {
				return fmt.Errorf("core: expiry of a lease worker %s does not hold on task %d", l.Worker, l.Task)
			}
		}
		return nil
	}
	return fmt.Errorf("core: no check for a mutation of kind %d", m.Kind)
}

// apply is the apply half of every mutation: it changes the pool as m
// says, which check accepted.
func (p *Pool) apply(m *Mutation) {
	switch m.Kind {
	case MutAddTask:
		p.insert(m.Task)
	case MutAnswers:
		for _, a := range m.Answers {
			p.applyRecord(p.tasks[a.Task], a, p.workers[a.Worker])
		}
	case MutClose:
		p.Close(m.ID)
	case MutLease:
		p.applyLease(m.Leases[0])
	case MutExpire:
		for _, l := range m.Leases {
			p.releaseLease(l.Task, l.Worker)
		}
	}
}

// applyRecord stores an answer checkRecord accepted into its task's entry;
// o is its worker's ordinal, which a worker's first answer draws.
func (p *Pool) applyRecord(e *taskEntry, a Answer, o int32) {
	if o == 0 {
		o = int32(len(p.workers)) + 1
		p.workers[a.Worker] = o
	}
	e.answers = append(e.answers, a)
	e.voters = append(e.voters, o)
	switch n := len(e.voters); {
	case n == voterScanMax+1: // the task crosses the bound: count from here on
		c := make(map[int32]int32, n)
		for _, v := range e.voters {
			c[v]++
		}
		p.counts[a.Task] = c
	case n > voterScanMax+1:
		p.counts[a.Task][o]++
	}
	// The submission consumes any outstanding lease for this assignment.
	p.releaseLease(a.Task, a.Worker)
}

// Answers returns the answers recorded for a task (possibly nil). The
// caller must not mutate the returned slice.
func (p *Pool) Answers(id TaskID) []Answer {
	if e := p.tasks[id]; e != nil {
		return e.answers
	}
	return nil
}

// AnswerCount returns the number of answers for a task.
func (p *Pool) AnswerCount(id TaskID) int { return len(p.Answers(id)) }

// TotalAnswers returns the number of answers across all tasks.
func (p *Pool) TotalAnswers() int {
	n := 0
	for _, e := range p.entries {
		n += len(e.answers)
	}
	return n
}

// HasAnswered reports whether the worker already answered the task.
func (p *Pool) HasAnswered(worker string, id TaskID) bool {
	e := p.tasks[id]
	return e != nil && p.votes(e, p.workers[worker]) > 0
}

// Close marks an open task as finished: no further answers are accepted
// and assigners skip it. Outstanding leases on the task are dropped — a
// late submission would be rejected anyway. Closing an unknown or already
// closed task does nothing.
func (p *Pool) Close(id TaskID) {
	if e := p.tasks[id]; e != nil && !e.closed {
		e.closed = true
		delete(p.leases, id)
	}
}

// Closed reports whether the task has been closed.
func (p *Pool) Closed(id TaskID) bool {
	e := p.tasks[id]
	return e != nil && e.closed
}

// OpenTasks returns the ids of tasks that are not closed, in insertion
// order.
func (p *Pool) OpenTasks() []TaskID {
	out := make([]TaskID, 0, len(p.order))
	for i, e := range p.entries {
		if !e.closed {
			out = append(out, p.order[i])
		}
	}
	return out
}

// OpenCount returns the number of tasks that are not closed.
func (p *Pool) OpenCount() int {
	n := 0
	for _, e := range p.entries {
		if !e.closed {
			n++
		}
	}
	return n
}

// LeastInFlight returns the open task the worker has not answered with
// the fewest in-flight answers (InFlight), the first in insertion order on
// ties; ok is false when there is none. It makes FewestAnswers' choice in
// one pass without allocating: the worker's ordinal is looked up once, a
// task's leases only when its answers alone would beat the best so far,
// its voters only when its in-flight count would, and the scan stops at
// the first eligible task with nothing in flight.
func (p *Pool) LeastInFlight(worker string) (TaskID, bool) {
	best, bestN := -1, math.MaxInt
	leased := len(p.leases) > 0
	o := p.workers[worker]
	for i, e := range p.entries {
		n := len(e.answers)
		if e.closed || n >= bestN {
			continue
		}
		if leased {
			if n += len(p.leases[p.order[i]]); n >= bestN {
				continue
			}
		}
		if p.votes(e, o) > 0 {
			continue
		}
		best, bestN = i, n
		if n == 0 {
			break
		}
	}
	if best < 0 {
		return 0, false
	}
	return p.order[best], true
}

// EligibleFor returns open tasks the given worker has not answered yet,
// in insertion order.
func (p *Pool) EligibleFor(worker string) []TaskID {
	out := make([]TaskID, 0, len(p.order))
	o := p.workers[worker]
	for i, e := range p.entries {
		if !e.closed && p.votes(e, o) == 0 {
			out = append(out, p.order[i])
		}
	}
	return out
}

// Workers returns the ids of all workers that submitted at least one
// answer, sorted for determinism: the keys of the worker table.
func (p *Pool) Workers() []string {
	out := make([]string, 0, len(p.workers))
	for w := range p.workers {
		out = append(out, w)
	}
	sort.Strings(out)
	return out
}

// OptionVotes tallies, for a choice-type task, how many answers selected
// each option. The slice is indexed by option.
func (p *Pool) OptionVotes(id TaskID) []int {
	e := p.tasks[id]
	if e == nil || len(e.task.Options) == 0 {
		return nil
	}
	votes := make([]int, len(e.task.Options))
	for _, a := range e.answers {
		if a.Option >= 0 && a.Option < len(votes) {
			votes[a.Option]++
		}
	}
	return votes
}
