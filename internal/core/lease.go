package core

import (
	"fmt"
	"sort"
	"time"
)

// Lease records that a task has been handed to a worker who has not yet
// submitted an answer for it. Leases are the unit of fault tolerance on
// the serving path: an assignment without a lease is lost forever if the
// worker vanishes, while a leased assignment is reclaimed after Deadline
// and re-issued to somebody else.
//
// The lease state machine is:
//
//	issued ──(Record by the same worker)──▶ submitted (lease consumed)
//	issued ──(ExpireLeases past Deadline)─▶ expired   (slot re-issuable)
//
// A worker re-fetching a task it already holds simply extends the lease
// (same state, later deadline). Closing a task drops all of its leases.
type Lease struct {
	Task     TaskID
	Worker   string
	Deadline time.Time
}

// Lease records (or extends) a lease on the task for the worker until
// deadline. The task must exist and be open.
func (p *Pool) Lease(id TaskID, worker string, deadline time.Time) error {
	return p.mutate(&Mutation{Kind: MutLease, Leases: []Lease{{Task: id, Worker: worker, Deadline: deadline}}})
}

// checkLease is the validation half of a lease.
func (p *Pool) checkLease(l Lease) error {
	e := p.tasks[l.Task]
	switch {
	case l.Worker == "":
		return fmt.Errorf("core: lease needs a worker id")
	case e == nil:
		return fmt.Errorf("core: lease for unknown task %d", l.Task)
	case e.closed:
		return fmt.Errorf("core: lease for closed task %d", l.Task)
	}
	return nil
}

// applyLease records a lease checkLease accepted.
func (p *Pool) applyLease(l Lease) {
	m := p.leases[l.Task]
	if m == nil {
		m = make(map[string]time.Time)
		p.leases[l.Task] = m
	}
	m[l.Worker] = l.Deadline
	// Mirror every (deadline, task, worker) into the expiry heap. Released
	// or re-leased entries go stale in the heap and are discarded lazily
	// when their deadline pops — see ExpireLeases.
	p.pushLeaseEntry(leaseEntry{deadline: l.Deadline, task: l.Task, worker: l.Worker})
}

// releaseLease drops the (task, worker) lease if one exists. Called when
// a submission consumes the lease and when a sweep expires it.
func (p *Pool) releaseLease(id TaskID, worker string) {
	m := p.leases[id]
	if m == nil {
		return
	}
	delete(m, worker)
	if len(m) == 0 {
		delete(p.leases, id)
	}
}

// HasLease reports whether the worker currently holds a lease on the task
// (expired-but-not-yet-swept leases still count: only ExpireLeases
// transitions them out).
func (p *Pool) HasLease(worker string, id TaskID) bool {
	_, ok := p.leases[id][worker]
	return ok
}

// LeaseCount returns the number of outstanding leases on a task.
func (p *Pool) LeaseCount(id TaskID) int { return len(p.leases[id]) }

// ActiveLeases returns the total number of outstanding leases.
func (p *Pool) ActiveLeases() int {
	n := 0
	for _, m := range p.leases {
		n += len(m)
	}
	return n
}

// InFlight returns committed answers plus outstanding leases for a task —
// the count assigners balance on, so that a task already handed out is not
// handed out again while other tasks need answers. Redundancy targets must
// keep using AnswerCount: only committed answers satisfy them.
func (p *Pool) InFlight(id TaskID) int {
	return len(p.Answers(id)) + len(p.leases[id])
}

// ExpireLeases removes every lease whose deadline is at or before now and
// returns them sorted by (task, worker) for deterministic processing. The
// freed slots immediately lower InFlight, so assigners re-issue the tasks.
//
// The sweep is driven by a deadline min-heap, so a call that finds nothing
// to expire — the overwhelmingly common case when the serving layer sweeps
// on every assignment — costs one heap peek instead of a scan over every
// outstanding lease. Consumed and extended leases leave lazily-deleted
// entries behind; each is discarded the first time its (now stale)
// deadline reaches the top of the heap.
func (p *Pool) ExpireLeases(now time.Time) []Lease {
	due := p.dueLeases(now)
	p.apply(&Mutation{Kind: MutExpire, Leases: due})
	p.dropDueEntries(now)
	return due
}

// dropDueEntries is a sweep's heap housekeeping, after its due leases were
// released: it drops every heap entry at or before now, the stale ones
// included. Skipping it changes nothing a caller can observe — lazy
// deletion tolerates stale entries — so recovery, which replays sweeps
// without their sweep time, leaves them for the first live sweep.
func (p *Pool) dropDueEntries(now time.Time) {
	for len(p.leaseHeap) > 0 && !p.leaseHeap[0].deadline.After(now) {
		p.popLeaseEntry()
	}
}

// dueLeases returns the leases a sweep at now reclaims, sorted by (task,
// worker), without touching the pool — a journaled sweep needs the set
// before it may apply it. A heap entry is live only if the lease map still
// holds its exact deadline (a submission or Close dropped it, or a
// re-lease moved it, otherwise). A heap's children are never earlier than
// their parent, so the walk prunes at the first entry past now.
func (p *Pool) dueLeases(now time.Time) []Lease {
	if len(p.leaseHeap) == 0 || p.leaseHeap[0].deadline.After(now) {
		return nil
	}
	var out []Lease
	p.collectDue(0, now, &out)
	sortLeases(out)
	// A lease re-issued with an unchanged deadline sits in the heap twice.
	uniq := out[:0]
	for _, l := range out {
		if n := len(uniq); n == 0 || l.Task != uniq[n-1].Task || l.Worker != uniq[n-1].Worker {
			uniq = append(uniq, l)
		}
	}
	return uniq
}

func (p *Pool) collectDue(i int, now time.Time, out *[]Lease) {
	if i >= len(p.leaseHeap) || p.leaseHeap[i].deadline.After(now) {
		return
	}
	e := p.leaseHeap[i]
	if d, ok := p.leases[e.task][e.worker]; ok && d.Equal(e.deadline) {
		*out = append(*out, Lease{Task: e.task, Worker: e.worker, Deadline: e.deadline})
	}
	p.collectDue(2*i+1, now, out)
	p.collectDue(2*i+2, now, out)
}

// sortLeases orders leases by (task, worker), the deterministic order
// sweeps and snapshots present them in.
func sortLeases(ls []Lease) {
	sort.Slice(ls, func(i, j int) bool {
		if ls[i].Task != ls[j].Task {
			return ls[i].Task < ls[j].Task
		}
		return ls[i].Worker < ls[j].Worker
	})
}

// Leases returns every outstanding lease sorted by (task, worker), for
// snapshots and diagnostics.
func (p *Pool) Leases() []Lease {
	out := make([]Lease, 0, p.ActiveLeases())
	for id, m := range p.leases {
		for w, d := range m {
			out = append(out, Lease{Task: id, Worker: w, Deadline: d})
		}
	}
	sortLeases(out)
	return out
}

// leaseEntry is one element of the expiry min-heap: the deadline a lease
// carried when it was (re-)issued. Entries are never removed eagerly; a
// popped entry whose deadline no longer matches the lease map is stale.
type leaseEntry struct {
	deadline time.Time
	task     TaskID
	worker   string
}

// pushLeaseEntry sifts a new entry up the deadline min-heap.
func (p *Pool) pushLeaseEntry(e leaseEntry) {
	h := append(p.leaseHeap, e)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h[i].deadline.Before(h[parent].deadline) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	p.leaseHeap = h
}

// popLeaseEntry removes and returns the earliest-deadline entry.
func (p *Pool) popLeaseEntry() leaseEntry {
	h := p.leaseHeap
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = leaseEntry{} // release the worker string
	h = h[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && h[l].deadline.Before(h[min].deadline) {
			min = l
		}
		if r < n && h[r].deadline.Before(h[min].deadline) {
			min = r
		}
		if min == i {
			break
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
	p.leaseHeap = h
	return top
}
