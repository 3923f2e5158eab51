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
// hot loops pay no synchronization cost. The serving layer holds one Pool
// per shard of a ShardedPool, which locks it; assigners, truth inference
// and journal replay read and fill those per-shard Pools directly.
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

// Add validates t, assigns it a fresh ID if it has none (ID 0 with an
// existing task 0 present counts as unset), and registers it. It returns
// the task's ID.
func (p *Pool) Add(t *Task) (TaskID, error) {
	if err := p.prepareAdd(t); err != nil {
		return 0, err
	}
	p.insert(t)
	return t.ID, nil
}

// prepareAdd is the validation half of Add: it settles t.ID and checks the
// task. An ID it reserved stays reserved if the task is never inserted.
func (p *Pool) prepareAdd(t *Task) error {
	_, taken := p.tasks[t.ID]
	settleID(t, taken, len(p.tasks) > 0, &p.nextID)
	return t.Validate()
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

// insert registers a task prepareAdd accepted.
func (p *Pool) insert(t *Task) {
	p.tasks[t.ID] = t
	p.order = append(p.order, t.ID)
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
	if err := p.checkRecord(a, 0, false); err != nil {
		return err
	}
	p.applyRecord(a)
	return nil
}

// ReplayAnswer applies an answer read back from a journal: Record, except
// that the task may already be closed. Logs written before answers were
// journaled under the shard lock can hold a question's last answer behind
// the task_closed record its arrival triggered; dropping it would leave
// the recovered pool one answer short of the spend that paid for it.
func (p *Pool) ReplayAnswer(a Answer) error {
	if err := p.checkRecord(a, 0, true); err != nil {
		return err
	}
	p.applyRecord(a)
	return nil
}

// checkRecord is the validation half of Record. pending counts answers by
// the same worker on the same task that were accepted but not applied yet
// (earlier items of one batch); closedOK admits a closed task.
func (p *Pool) checkRecord(a Answer, pending int, closedOK bool) error {
	t, ok := p.tasks[a.Task]
	if !ok {
		return fmt.Errorf("core: answer for unknown task %d", a.Task)
	}
	if p.closed[a.Task] && !closedOK {
		return fmt.Errorf("core: answer for closed task %d", a.Task)
	}
	n := p.perWorker[a.Worker][a.Task] + pending
	if t.Kind == MultiChoice || t.Kind == Collection {
		if n >= MaxRepeatAnswers {
			return fmt.Errorf("core: worker %s hit the %d-answer resubmission cap on task %d",
				a.Worker, MaxRepeatAnswers, a.Task)
		}
	} else if n > 0 {
		return fmt.Errorf("core: worker %s already answered task %d", a.Worker, a.Task)
	}
	return nil
}

// applyRecord stores an answer checkRecord accepted.
func (p *Pool) applyRecord(a Answer) {
	wt := p.perWorker[a.Worker]
	if wt == nil {
		wt = make(map[TaskID]int)
		p.perWorker[a.Worker] = wt
	}
	wt[a.Task]++
	p.answers[a.Task] = append(p.answers[a.Task], a)
	// The submission consumes any outstanding lease for this assignment.
	p.releaseLease(a.Task, a.Worker)
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

// Close marks an open task as finished: no further answers are accepted
// and assigners skip it. Outstanding leases on the task are dropped — a
// late submission would be rejected anyway. Closing an unknown or already
// closed task does nothing.
func (p *Pool) Close(id TaskID) {
	if p.closable(id) {
		p.closed[id] = true
		delete(p.leases, id)
	}
}

// closable reports whether Close(id) would change anything.
func (p *Pool) closable(id TaskID) bool {
	_, ok := p.tasks[id]
	return ok && !p.closed[id]
}

// Closed reports whether the task has been closed.
func (p *Pool) Closed(id TaskID) bool { return p.closed[id] }

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
