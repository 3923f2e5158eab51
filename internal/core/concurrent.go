package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// ConcurrentPool makes a Pool safe for concurrent use by guarding it with
// an RWMutex: reads (task lookup, eligibility scans, statistics, assigner
// runs) proceed in parallel, while mutations (Add, Record, Close) take the
// write lock. The single-threaded Pool keeps its lock-free API for the
// simulator hot loops; the serving layer wraps it here.
//
// The wrapper also maintains a monotonically increasing version counter,
// bumped on every successful mutation. Consumers that derive expensive
// state from the pool (e.g. EM truth inference behind /api/results) key
// their caches on Version: an unchanged version proves the answer set is
// unchanged, so the cached result is still exact.
type ConcurrentPool struct {
	mu      sync.RWMutex
	pool    *Pool
	version atomic.Uint64
	// journal, when set, is written under the write lock after a mutation
	// validated and before it is applied; shard is this pool's index in the
	// ShardedPool that attached it (0 standalone). See Journal.
	journal Journal
	shard   int

	// Answer-append log for incremental readers (EnableAnswerLog). Each
	// accepted answer is recorded with the version it landed at, so a
	// reader holding a snapshot at version v can fetch exactly the answers
	// appended since v instead of re-copying the whole pool. alogTrim is
	// the oldest version a delta may start from: it advances when the log
	// is trimmed and jumps to the current version on any structural
	// mutation (task add, answer removal) that an append log cannot
	// express. All fields are guarded by mu; readers use the *Locked
	// accessors under an already-held read lock.
	alog     []answerLogEntry
	alogCap  int
	alogTrim uint64
}

// answerLogEntry records one accepted answer and the pool version after
// it was applied.
type answerLogEntry struct {
	ver uint64
	ans Answer
}

// EnableAnswerLog turns on the answer-append log with the given capacity
// (answers retained; half is discarded on overflow). Deltas become
// available from the current version onward. capacity <= 0 disables the
// log again.
func (cp *ConcurrentPool) EnableAnswerLog(capacity int) {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	cp.alogCap = capacity
	cp.alog = nil
	cp.alogTrim = cp.version.Load()
}

// logAnswerLocked appends an accepted answer at the given post-bump
// version, trimming the oldest half when the log is full. Callers hold
// the write lock.
func (cp *ConcurrentPool) logAnswerLocked(ver uint64, a Answer) {
	if cp.alogCap <= 0 {
		return
	}
	if len(cp.alog) >= cp.alogCap {
		half := len(cp.alog) / 2
		cp.alogTrim = cp.alog[half-1].ver
		cp.alog = append(cp.alog[:0], cp.alog[half:]...)
	}
	cp.alog = append(cp.alog, answerLogEntry{ver: ver, ans: a})
}

// invalidateLogLocked discards the log after a structural mutation: the
// task set changed, which appends cannot express, so no delta may span
// this version. Callers hold the write lock and have already bumped the
// version.
func (cp *ConcurrentPool) invalidateLogLocked() {
	if cp.alogCap <= 0 {
		return
	}
	cp.alog = cp.alog[:0]
	cp.alogTrim = cp.version.Load()
}

// canDeltaLocked reports whether the appended answers since version
// `since` are fully covered by the log. Callers hold at least the read
// lock.
func (cp *ConcurrentPool) canDeltaLocked(since uint64) bool {
	return cp.alogCap > 0 && since >= cp.alogTrim
}

// appendedSinceLocked appends to dst every answer recorded after version
// `since`, in application order, and reports whether the log covered the
// whole window. Callers hold at least the read lock.
func (cp *ConcurrentPool) appendedSinceLocked(since uint64, dst []Answer) ([]Answer, bool) {
	if !cp.canDeltaLocked(since) {
		return dst, false
	}
	// Entries are in ascending version order; skip those at or before the
	// snapshot.
	lo, hi := 0, len(cp.alog)
	for lo < hi {
		mid := (lo + hi) / 2
		if cp.alog[mid].ver <= since {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	for _, e := range cp.alog[lo:] {
		dst = append(dst, e.ans)
	}
	return dst, true
}

// NewConcurrentPool wraps p (a fresh empty pool when nil). The wrapped
// pool must not be mutated directly while the wrapper is in use; read-only
// access from other goroutines remains safe as long as no one bypasses the
// wrapper for writes.
func NewConcurrentPool(p *Pool) *ConcurrentPool {
	if p == nil {
		p = NewPool()
	}
	return &ConcurrentPool{pool: p}
}

// Version returns the current mutation counter. Two equal observations
// bracket a window in which the pool's tasks and answers did not change.
func (cp *ConcurrentPool) Version() uint64 { return cp.version.Load() }

// notJournaled marks err as the journal's refusal of a valid mutation.
func notJournaled(err error) error { return fmt.Errorf("%w: %w", ErrNotJournaled, err) }

// Add registers a task under the write lock.
func (cp *ConcurrentPool) Add(t *Task) (TaskID, error) {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	if err := cp.pool.prepareAdd(t); err != nil {
		return 0, err
	}
	if cp.journal != nil {
		if err := cp.journal.TaskAdded(t); err != nil {
			return 0, notJournaled(err)
		}
	}
	cp.pool.insert(t)
	cp.version.Add(1)
	cp.invalidateLogLocked()
	return t.ID, nil
}

// Record stores an answer under the write lock; the version is bumped only
// when the platform rules accept the answer and the journal took it. pos
// is the answer's journal position (0 without a journal).
//
// With a tracing ctx the core.record span covers the lock wait and the
// validation and ends before the journal hook runs, so a trace reads
// core.record, wal.append and wal.fsync as consecutive phases of the
// request; the apply itself is the request's own time.
func (cp *ConcurrentPool) Record(ctx context.Context, a Answer, c Charge) (pos uint64, err error) {
	_, sp := obs.ChildSpan(ctx, "core.record")
	cp.mu.Lock()
	defer cp.mu.Unlock()
	err = cp.pool.checkRecord(a, 0, false)
	if sp.Recording() {
		sp.SetAttr(obs.Int("task", int64(a.Task)), obs.Str("worker", a.Worker),
			obs.Int("shard", int64(cp.shard)))
		sp.SetError(err)
	}
	sp.End()
	if err != nil {
		return 0, err
	}
	if cp.journal != nil {
		if pos, err = cp.journal.AnswerRecorded(ctx, a, c); err != nil {
			return 0, notJournaled(err)
		}
	}
	cp.pool.applyRecord(a)
	cp.logAnswerLocked(cp.version.Add(1), a)
	return pos, nil
}

// RecordAll stores a batch of answers under one write-lock acquisition,
// applying the same platform rules as Record to each (an answer is checked
// against the batch's earlier answers too). cs holds the answers' charges,
// index-aligned. The accepted answers are journaled as one record at pos
// and then applied; the returned slice is index-aligned with as: nil for
// applied answers, the rejection otherwise — for every otherwise
// acceptable answer the journal's wrapped error, if it refused the batch. The version is bumped once when at least one answer was
// applied — the point of batching is to pay the lock, the journal append
// and the cache invalidation once per batch instead of once per answer.
func (cp *ConcurrentPool) RecordAll(as []Answer, cs []Charge) (errs []error, pos uint64) {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	errs = make([]error, len(as))
	type slot struct {
		task   TaskID
		worker string
	}
	pending := make(map[slot]int)
	accepted := make([]Answer, 0, len(as))
	charges := make([]Charge, 0, len(as))
	for i, a := range as {
		k := slot{a.Task, a.Worker}
		if errs[i] = cp.pool.checkRecord(a, pending[k], false); errs[i] != nil {
			continue
		}
		pending[k]++
		accepted = append(accepted, a)
		charges = append(charges, cs[i])
	}
	if len(accepted) == 0 {
		return errs, 0
	}
	if cp.journal != nil {
		var err error
		if pos, err = cp.journal.AnswerBatch(accepted, charges); err != nil {
			err = notJournaled(err)
			for i := range errs {
				if errs[i] == nil {
					errs[i] = err
				}
			}
			return errs, 0
		}
	}
	ver := cp.version.Add(1)
	for _, a := range accepted {
		cp.pool.applyRecord(a)
		cp.logAnswerLocked(ver, a)
	}
	return errs, pos
}

// Close marks an open task as finished under the write lock; closing an
// unknown or already closed task does nothing, journals nothing and leaves
// the version alone. The answer log stays valid across a Close: the
// version moves (closing changes what assigners may hand out) but the
// answer set does not, so a delta spanning the close is correctly empty.
func (cp *ConcurrentPool) Close(id TaskID) error {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	if !cp.pool.closable(id) {
		return nil
	}
	if cp.journal != nil {
		if err := cp.journal.TaskClosed(id); err != nil {
			return notJournaled(err)
		}
	}
	cp.pool.Close(id)
	cp.version.Add(1)
	return nil
}

// Assign runs an assignment policy against the pool under the read lock.
// Assigners only read pool state, so concurrent assignments for different
// workers proceed in parallel.
func (cp *ConcurrentPool) Assign(a Assigner, worker string) (TaskID, bool) {
	cp.mu.RLock()
	defer cp.mu.RUnlock()
	return a.Assign(cp.pool, worker)
}

// AssignLease atomically runs the assignment policy and records a lease on
// the chosen task until deadline. It takes the write lock (the lease is a
// mutation, and choosing + leasing must be one atomic step so two workers
// cannot race past each other's in-flight counts). A non-nil error is the
// journal's refusal; an assigner offering an unknown or closed task counts
// as no assignment rather than handing out an untracked slot.
//
// Lease bookkeeping deliberately does NOT bump the version counter: leases
// never change the answer set, and bumping on every assignment would
// invalidate the /api/results inference cache on each /api/task poll.
func (cp *ConcurrentPool) AssignLease(a Assigner, worker string, deadline time.Time) (TaskID, bool, error) {
	return cp.assignLease(a, worker, deadline, false)
}

// assignLease is AssignLease; with fresh set it refuses an assignment that
// would merely extend a lease the worker already holds. The sharded facade
// uses that for its first scan: a shard whose only offer for this worker
// is a re-extension should not stop the scan while another shard still has
// fresh work.
func (cp *ConcurrentPool) assignLease(a Assigner, worker string, deadline time.Time, fresh bool) (TaskID, bool, error) {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	id, ok := a.Assign(cp.pool, worker)
	if !ok || fresh && cp.pool.HasLease(worker, id) || cp.pool.checkLease(id, worker) != nil {
		return 0, false, nil
	}
	if cp.journal != nil {
		if err := cp.journal.LeaseIssued(Lease{Task: id, Worker: worker, Deadline: deadline}); err != nil {
			return 0, false, notJournaled(err)
		}
	}
	cp.pool.applyLease(id, worker, deadline)
	return id, true, nil
}

// ExpireLeases sweeps leases past their deadline under the write lock and
// returns the reclaimed assignments; when the journal refuses the sweep
// nothing is reclaimed. Like AssignLease, it does not bump the version
// counter.
func (cp *ConcurrentPool) ExpireLeases(now time.Time) ([]Lease, error) {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	due := cp.pool.dueLeases(now)
	if len(due) > 0 && cp.journal != nil {
		if err := cp.journal.LeasesExpired(due); err != nil {
			return nil, notJournaled(err)
		}
	}
	cp.pool.reclaim(due, now)
	return due, nil
}

// ActiveLeases returns the total number of outstanding leases.
func (cp *ConcurrentPool) ActiveLeases() int {
	cp.mu.RLock()
	defer cp.mu.RUnlock()
	return cp.pool.ActiveLeases()
}

// LeaseCount returns the number of outstanding leases on a task.
func (cp *ConcurrentPool) LeaseCount(id TaskID) int {
	cp.mu.RLock()
	defer cp.mu.RUnlock()
	return cp.pool.LeaseCount(id)
}

// HasLease reports whether the worker holds a lease on the task.
func (cp *ConcurrentPool) HasLease(worker string, id TaskID) bool {
	cp.mu.RLock()
	defer cp.mu.RUnlock()
	return cp.pool.HasLease(worker, id)
}

// InFlight returns committed answers plus outstanding leases for a task.
func (cp *ConcurrentPool) InFlight(id TaskID) int {
	cp.mu.RLock()
	defer cp.mu.RUnlock()
	return cp.pool.InFlight(id)
}

// View runs fn with the read lock held, giving it a consistent snapshot of
// the pool across multiple calls. fn must not mutate the pool and must not
// retain references to its internal slices past the call.
func (cp *ConcurrentPool) View(fn func(p *Pool)) {
	cp.mu.RLock()
	defer cp.mu.RUnlock()
	fn(cp.pool)
}

// Task returns the task with the given id, or nil. Tasks are immutable
// once added, so the returned pointer is safe to read without the lock.
func (cp *ConcurrentPool) Task(id TaskID) *Task {
	cp.mu.RLock()
	defer cp.mu.RUnlock()
	return cp.pool.Task(id)
}

// Len returns the number of tasks.
func (cp *ConcurrentPool) Len() int {
	cp.mu.RLock()
	defer cp.mu.RUnlock()
	return cp.pool.Len()
}

// TaskIDs returns a copy of the task ids in insertion order.
func (cp *ConcurrentPool) TaskIDs() []TaskID {
	cp.mu.RLock()
	defer cp.mu.RUnlock()
	out := make([]TaskID, len(cp.pool.TaskIDs()))
	copy(out, cp.pool.TaskIDs())
	return out
}

// Answers returns a copy of the answers recorded for a task.
func (cp *ConcurrentPool) Answers(id TaskID) []Answer {
	cp.mu.RLock()
	defer cp.mu.RUnlock()
	src := cp.pool.Answers(id)
	if src == nil {
		return nil
	}
	out := make([]Answer, len(src))
	copy(out, src)
	return out
}

// AnswerCount returns the number of answers for a task.
func (cp *ConcurrentPool) AnswerCount(id TaskID) int {
	cp.mu.RLock()
	defer cp.mu.RUnlock()
	return cp.pool.AnswerCount(id)
}

// TotalAnswers returns the number of answers across all tasks.
func (cp *ConcurrentPool) TotalAnswers() int {
	cp.mu.RLock()
	defer cp.mu.RUnlock()
	return cp.pool.TotalAnswers()
}

// HasAnswered reports whether the worker already answered the task.
func (cp *ConcurrentPool) HasAnswered(worker string, id TaskID) bool {
	cp.mu.RLock()
	defer cp.mu.RUnlock()
	return cp.pool.HasAnswered(worker, id)
}

// Closed reports whether the task has been closed.
func (cp *ConcurrentPool) Closed(id TaskID) bool {
	cp.mu.RLock()
	defer cp.mu.RUnlock()
	return cp.pool.Closed(id)
}

// OpenTasks returns the ids of tasks that are not closed.
func (cp *ConcurrentPool) OpenTasks() []TaskID {
	cp.mu.RLock()
	defer cp.mu.RUnlock()
	return cp.pool.OpenTasks()
}

// EligibleFor returns open tasks the worker has not answered yet.
func (cp *ConcurrentPool) EligibleFor(worker string) []TaskID {
	cp.mu.RLock()
	defer cp.mu.RUnlock()
	return cp.pool.EligibleFor(worker)
}

// Workers returns the sorted ids of all workers that answered.
func (cp *ConcurrentPool) Workers() []string {
	cp.mu.RLock()
	defer cp.mu.RUnlock()
	return cp.pool.Workers()
}

// OptionVotes tallies option votes for a choice-type task.
func (cp *ConcurrentPool) OptionVotes(id TaskID) []int {
	cp.mu.RLock()
	defer cp.mu.RUnlock()
	return cp.pool.OptionVotes(id)
}
