package core

import (
	"fmt"
	"sort"
	"time"
)

// Pool holds the open tasks of a crowdsourcing run together with the
// answers collected so far. It is the shared blackboard between the
// platform loop, assignment policies, and truth inference.
//
// Pool is not safe for concurrent use; it stays lock-free so simulator
// hot loops pay no synchronization cost. Concurrent callers (the HTTP
// serving layer) wrap it in a ConcurrentPool instead.
type Pool struct {
	tasks   map[TaskID]*Task
	order   []TaskID // insertion order, for deterministic iteration
	answers map[TaskID][]Answer
	// perWorker counts how many answers each worker has submitted per
	// task, to enforce the one-answer-per-worker-per-task platform rule
	// (and, for the repeatable kinds, the MaxRepeatAnswers cap).
	perWorker map[string]map[TaskID]int
	closed    map[TaskID]bool
	// leases tracks outstanding assignments per task: worker -> deadline.
	// See lease.go for the lease state machine.
	leases map[TaskID]map[string]time.Time
	// leaseHeap orders outstanding lease deadlines so expiry sweeps pay
	// O(expired · log n) instead of scanning every lease. Entries for
	// consumed or extended leases are deleted lazily; see ExpireLeases.
	leaseHeap []leaseEntry
	nextID    TaskID
}

// NewPool returns an empty pool.
func NewPool() *Pool {
	return &Pool{
		tasks:     make(map[TaskID]*Task),
		answers:   make(map[TaskID][]Answer),
		perWorker: make(map[string]map[TaskID]int),
		closed:    make(map[TaskID]bool),
		leases:    make(map[TaskID]map[string]time.Time),
	}
}

// Clone returns a deep copy of the pool's bookkeeping. Task pointers are
// shared (tasks are immutable once added); answers, per-worker sets,
// closed flags, and leases are copied, so mutations of the clone and the
// original never interfere. Used by the durability layer, whose journal
// replica and the live serving pool start from the same recovered state.
func (p *Pool) Clone() *Pool {
	c := &Pool{
		tasks:     make(map[TaskID]*Task, len(p.tasks)),
		order:     append([]TaskID(nil), p.order...),
		answers:   make(map[TaskID][]Answer, len(p.answers)),
		perWorker: make(map[string]map[TaskID]int, len(p.perWorker)),
		closed:    make(map[TaskID]bool, len(p.closed)),
		leases:    make(map[TaskID]map[string]time.Time, len(p.leases)),
		leaseHeap: append([]leaseEntry(nil), p.leaseHeap...),
		nextID:    p.nextID,
	}
	for id, t := range p.tasks {
		c.tasks[id] = t
	}
	for id, as := range p.answers {
		c.answers[id] = append([]Answer(nil), as...)
	}
	for w, m := range p.perWorker {
		cm := make(map[TaskID]int, len(m))
		for id, v := range m {
			cm[id] = v
		}
		c.perWorker[w] = cm
	}
	for id, v := range p.closed {
		c.closed[id] = v
	}
	for id, m := range p.leases {
		cm := make(map[string]time.Time, len(m))
		for w, d := range m {
			cm[w] = d
		}
		c.leases[id] = cm
	}
	return c
}

// Add validates t, assigns it a fresh ID if it has none (ID 0 with an
// existing task 0 present counts as unset), and registers it. It returns
// the task's ID.
func (p *Pool) Add(t *Task) (TaskID, error) {
	if _, exists := p.tasks[t.ID]; exists || t.ID == 0 && len(p.tasks) > 0 {
		t.ID = p.nextID
	}
	if t.ID >= p.nextID {
		p.nextID = t.ID + 1
	} else if t.ID == 0 {
		t.ID = p.nextID
		p.nextID++
	}
	if err := t.Validate(); err != nil {
		return 0, err
	}
	p.tasks[t.ID] = t
	p.order = append(p.order, t.ID)
	return t.ID, nil
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
func (p *Pool) Task(id TaskID) *Task { return p.tasks[id] }

// Len returns the number of tasks.
func (p *Pool) Len() int { return len(p.tasks) }

// TaskIDs returns all task ids in insertion order. The caller must not
// mutate the returned slice.
func (p *Pool) TaskIDs() []TaskID { return p.order }

// MaxRepeatAnswers caps how many answers one worker may submit for one
// repeatable (MultiChoice, Collection) task. Legitimate uses stay small —
// one answer per selected option, a handful of collected items — while an
// uncapped task lets a retrying or hostile client charge the budget
// arbitrarily many times for the same assignment.
const MaxRepeatAnswers = 8

// Record stores an answer after checking the platform rules: the task must
// exist, must be open, and the worker must not have answered it before
// (repeatable kinds allow up to MaxRepeatAnswers submissions).
func (p *Pool) Record(a Answer) error {
	if _, ok := p.tasks[a.Task]; !ok {
		return fmt.Errorf("core: answer for unknown task %d", a.Task)
	}
	if p.closed[a.Task] {
		return fmt.Errorf("core: answer for closed task %d", a.Task)
	}
	wt := p.perWorker[a.Worker]
	if wt == nil {
		wt = make(map[TaskID]int)
		p.perWorker[a.Worker] = wt
	}
	n := wt[a.Task]
	kind := p.tasks[a.Task].Kind
	if kind == MultiChoice || kind == Collection {
		if n >= MaxRepeatAnswers {
			return fmt.Errorf("core: worker %s hit the %d-answer resubmission cap on task %d",
				a.Worker, MaxRepeatAnswers, a.Task)
		}
	} else if n > 0 {
		return fmt.Errorf("core: worker %s already answered task %d", a.Worker, a.Task)
	}
	wt[a.Task] = n + 1
	p.answers[a.Task] = append(p.answers[a.Task], a)
	// The submission consumes any outstanding lease for this assignment.
	p.releaseLease(a.Task, a.Worker)
	return nil
}

// Unrecord removes the most recently recorded answer equal to a,
// reversing the bookkeeping Record applied (answer list, per-worker
// count). It exists for the serving layer's durability rollback: an
// answer whose journal append failed must leave memory again, or the live
// state diverges from what recovery will rebuild. The consumed lease (if
// any) is not resurrected — the worker resubmits or the slot is
// re-assigned. Reports whether a matching answer was found.
func (p *Pool) Unrecord(a Answer) bool {
	as := p.answers[a.Task]
	for i := len(as) - 1; i >= 0; i-- {
		if as[i] != a {
			continue
		}
		p.answers[a.Task] = append(as[:i], as[i+1:]...)
		if len(p.answers[a.Task]) == 0 {
			delete(p.answers, a.Task)
		}
		if wt := p.perWorker[a.Worker]; wt != nil {
			if wt[a.Task] > 1 {
				wt[a.Task]--
			} else {
				delete(wt, a.Task)
				if len(wt) == 0 {
					delete(p.perWorker, a.Worker)
				}
			}
		}
		return true
	}
	return false
}

// Answers returns the answers recorded for a task (possibly nil). The
// caller must not mutate the returned slice.
func (p *Pool) Answers(id TaskID) []Answer { return p.answers[id] }

// AllAnswers returns every recorded answer, ordered by task insertion
// order then arrival order.
func (p *Pool) AllAnswers() []Answer {
	var out []Answer
	for _, id := range p.order {
		out = append(out, p.answers[id]...)
	}
	return out
}

// AnswerCount returns the number of answers for a task.
func (p *Pool) AnswerCount(id TaskID) int { return len(p.answers[id]) }

// TotalAnswers returns the number of answers across all tasks.
func (p *Pool) TotalAnswers() int {
	n := 0
	for _, as := range p.answers {
		n += len(as)
	}
	return n
}

// HasAnswered reports whether the worker already answered the task.
func (p *Pool) HasAnswered(worker string, id TaskID) bool {
	return p.perWorker[worker][id] > 0
}

// Close marks a task as finished: no further answers are accepted and
// assigners skip it. Outstanding leases on the task are dropped — a late
// submission would be rejected anyway.
func (p *Pool) Close(id TaskID) {
	p.closed[id] = true
	delete(p.leases, id)
}

// Closed reports whether the task has been closed.
func (p *Pool) Closed(id TaskID) bool { return p.closed[id] }

// Reopen undoes Close (dropped leases stay dropped). Journal replay uses it
// to fold an answer whose record landed in the log behind its task's close.
func (p *Pool) Reopen(id TaskID) { delete(p.closed, id) }

// OpenTasks returns the ids of tasks that are not closed, in insertion
// order.
func (p *Pool) OpenTasks() []TaskID {
	out := make([]TaskID, 0, len(p.order))
	for _, id := range p.order {
		if !p.closed[id] {
			out = append(out, id)
		}
	}
	return out
}

// EligibleFor returns open tasks the given worker has not answered yet,
// in insertion order.
func (p *Pool) EligibleFor(worker string) []TaskID {
	out := make([]TaskID, 0, len(p.order))
	for _, id := range p.order {
		if !p.closed[id] && p.perWorker[worker][id] == 0 {
			out = append(out, id)
		}
	}
	return out
}

// Workers returns the ids of all workers that submitted at least one
// answer, sorted for determinism.
func (p *Pool) Workers() []string {
	out := make([]string, 0, len(p.perWorker))
	for w := range p.perWorker {
		out = append(out, w)
	}
	sort.Strings(out)
	return out
}

// OptionVotes tallies, for a choice-type task, how many answers selected
// each option. The slice is indexed by option.
func (p *Pool) OptionVotes(id TaskID) []int {
	t := p.tasks[id]
	if t == nil || len(t.Options) == 0 {
		return nil
	}
	votes := make([]int, len(t.Options))
	for _, a := range p.answers[id] {
		if a.Option >= 0 && a.Option < len(votes) {
			votes[a.Option]++
		}
	}
	return votes
}
