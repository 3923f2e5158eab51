package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// shard is one lock domain of a ShardedPool: a plain Pool behind an
// RWMutex. Reads (task lookup, assigner runs, ViewAll) take the read lock
// and proceed in parallel; every mutation takes the write lock and runs
// validate → journal → apply under it (see Journal), so the journal holds
// the shard's mutations in the order the shard applied them.
//
// version is bumped on every mutation of the task or answer set and on
// every close. Consumers that derive expensive state from the pool (EM
// inference behind /api/results) key their caches on it: an unchanged
// version proves the answer set is unchanged.
type shard struct {
	mu      sync.RWMutex
	pool    *Pool
	version atomic.Uint64
	journal Journal // nil: mutations are applied unjournaled
	index   int     // position in the ShardedPool, for spans

	// Answer-append log for incremental readers (ViewDelta). Each accepted
	// answer is recorded with the version it landed at, so a reader holding
	// a snapshot at version v can fetch exactly the answers appended since
	// v instead of re-copying the whole pool. alogTrim is the oldest version
	// a delta may start from: it advances when the log is trimmed and jumps
	// to the current version on a task add, which an append log cannot
	// express. All fields are guarded by mu.
	alog     []answerLogEntry
	alogCap  int
	alogTrim uint64
}

// answerLogCap is each shard's answer-log capacity (half is discarded on
// overflow). At 8 shards this retains the last ~64k answers; a results
// poll cadence that falls further behind than that falls back to a full
// rebuild.
const answerLogCap = 8192

// answerLogEntry records one accepted answer and the shard version after
// it was applied.
type answerLogEntry struct {
	ver uint64
	ans Answer
}

// logAnswerLocked appends an accepted answer at the given post-bump
// version, trimming the oldest half when the log is full. Callers hold
// the write lock.
func (s *shard) logAnswerLocked(ver uint64, a Answer) {
	if len(s.alog) >= s.alogCap {
		half := len(s.alog) / 2
		s.alogTrim = s.alog[half-1].ver
		s.alog = append(s.alog[:0], s.alog[half:]...)
	}
	s.alog = append(s.alog, answerLogEntry{ver: ver, ans: a})
}

// canDeltaLocked reports whether the appended answers since version
// `since` are fully covered by the log. Callers hold at least the read
// lock.
func (s *shard) canDeltaLocked(since uint64) bool { return since >= s.alogTrim }

// appendedSinceLocked appends to dst every answer recorded after version
// `since`, in application order, and reports whether the log covered the
// whole window. Callers hold at least the read lock.
func (s *shard) appendedSinceLocked(since uint64, dst []Answer) ([]Answer, bool) {
	if !s.canDeltaLocked(since) {
		return dst, false
	}
	// Entries are in ascending version order; skip those at or before the
	// snapshot.
	lo, hi := 0, len(s.alog)
	for lo < hi {
		mid := (lo + hi) / 2
		if s.alog[mid].ver <= since {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	for _, e := range s.alog[lo:] {
		dst = append(dst, e.ans)
	}
	return dst, true
}

// notJournaled marks err as the journal's refusal of a valid mutation.
func notJournaled(err error) error { return fmt.Errorf("%w: %w", ErrNotJournaled, err) }

// add journals and inserts a validated task whose ID the ShardedPool has
// settled; the shard never re-assigns it. A task add is structural, so no
// answer-log window may span it.
func (s *shard) add(t *Task) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.journal != nil {
		if err := s.journal.TaskAdded(t); err != nil {
			return notJournaled(err)
		}
	}
	s.pool.insert(t)
	s.alog = s.alog[:0]
	s.alogTrim = s.version.Add(1)
	return nil
}

// record stores an answer under the write lock; the version is bumped only
// when the platform rules accept the answer and the journal took it. pos
// is the answer's journal position (0 without a journal).
//
// With a tracing ctx the core.record span covers the lock wait and the
// validation and ends before the journal hook runs, so a trace reads
// core.record, wal.append and wal.fsync as consecutive phases of the
// request; the apply itself is the request's own time.
func (s *shard) record(ctx context.Context, a Answer, c Charge) (pos uint64, err error) {
	_, sp := obs.ChildSpan(ctx, "core.record")
	s.mu.Lock()
	defer s.mu.Unlock()
	e, err := s.pool.checkRecord(a, 0, false)
	if sp.Recording() {
		sp.SetAttr(obs.Int("task", int64(a.Task)), obs.Str("worker", a.Worker),
			obs.Int("shard", int64(s.index)))
		sp.SetError(err)
	}
	sp.End()
	if err != nil {
		return 0, err
	}
	if s.journal != nil {
		if pos, err = s.journal.AnswerRecorded(ctx, a, c); err != nil {
			return 0, notJournaled(err)
		}
	}
	s.pool.applyRecord(e, a)
	s.logAnswerLocked(s.version.Add(1), a)
	return pos, nil
}

// recordAll stores a batch of answers under one write-lock acquisition,
// applying the same platform rules as record to each (an answer is checked
// against the batch's earlier answers too). cs holds the answers' charges,
// index-aligned. The accepted answers are journaled as one record at pos
// and then applied; the returned slice is index-aligned with as: nil for
// applied answers, the rejection otherwise — for every otherwise
// acceptable answer the journal's wrapped error, if it refused the batch.
// The version is bumped once when at least one answer was applied — the
// point of batching is to pay the lock, the journal append and the cache
// invalidation once per batch instead of once per answer.
func (s *shard) recordAll(as []Answer, cs []Charge) (errs []error, pos uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
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
		if _, errs[i] = s.pool.checkRecord(a, pending[k], false); errs[i] != nil {
			continue
		}
		pending[k]++
		accepted = append(accepted, a)
		charges = append(charges, cs[i])
	}
	if len(accepted) == 0 {
		return errs, 0
	}
	if s.journal != nil {
		var err error
		if pos, err = s.journal.AnswerBatch(accepted, charges); err != nil {
			err = notJournaled(err)
			for i := range errs {
				if errs[i] == nil {
					errs[i] = err
				}
			}
			return errs, 0
		}
	}
	ver := s.version.Add(1)
	for _, a := range accepted {
		s.pool.applyRecord(s.pool.tasks[a.Task], a)
		s.logAnswerLocked(ver, a)
	}
	return errs, pos
}

// close marks an open task as finished under the write lock; closing an
// unknown or already closed task does nothing, journals nothing and leaves
// the version alone. The answer log stays valid across a close: the
// version moves (closing changes what assigners may hand out) but the
// answer set does not, so a delta spanning the close is correctly empty.
func (s *shard) close(id TaskID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.pool.closable(id) {
		return nil
	}
	if s.journal != nil {
		if err := s.journal.TaskClosed(id); err != nil {
			return notJournaled(err)
		}
	}
	s.pool.Close(id)
	s.version.Add(1)
	return nil
}

// assignLease atomically runs the assignment policy and records a lease on
// the chosen task until deadline, under the write lock: choosing and
// leasing are one step, so two workers cannot race past each other's
// in-flight counts. With fresh set it refuses an assignment that would
// merely extend a lease the worker already holds (see
// ShardedPool.AssignLease). A non-nil error is the journal's refusal; an
// assigner offering an unknown or closed task counts as no assignment
// rather than handing out an untracked slot.
//
// Lease bookkeeping deliberately does NOT bump the version: leases never
// change the answer set, and bumping on every assignment would invalidate
// the /api/results inference cache on each /api/task poll.
func (s *shard) assignLease(a Assigner, worker string, deadline time.Time, fresh bool) (TaskID, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	id, ok := a.Assign(s.pool, worker)
	if !ok || fresh && s.pool.HasLease(worker, id) || s.pool.checkLease(id, worker) != nil {
		return 0, false, nil
	}
	if s.journal != nil {
		if err := s.journal.LeaseIssued(Lease{Task: id, Worker: worker, Deadline: deadline}); err != nil {
			return 0, false, notJournaled(err)
		}
	}
	s.pool.applyLease(id, worker, deadline)
	return id, true, nil
}

// expireLeases sweeps leases past their deadline under the write lock and
// returns the reclaimed assignments; when the journal refuses the sweep
// nothing is reclaimed. Like assignLease, it does not bump the version.
func (s *shard) expireLeases(now time.Time) ([]Lease, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	due := s.pool.dueLeases(now)
	if len(due) > 0 && s.journal != nil {
		if err := s.journal.LeasesExpired(due); err != nil {
			return nil, notJournaled(err)
		}
	}
	s.pool.reclaim(due, now)
	return due, nil
}
