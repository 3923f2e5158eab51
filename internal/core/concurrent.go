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

// commit journals a mutation its shard path checked and then applies it,
// under the write lock the caller holds. pos is the mutation's journal
// position (0 without a journal); when the journal refuses the mutation,
// nothing is applied.
func (s *shard) commit(ctx context.Context, m *Mutation) (pos uint64, err error) {
	if s.journal != nil {
		if pos, err = s.journal.Append(ctx, m); err != nil {
			return 0, fmt.Errorf("%w: %w", ErrNotJournaled, err)
		}
	}
	s.pool.apply(m)
	return pos, nil
}

// add checks, journals and inserts a task whose ID the ShardedPool has
// settled; the shard never re-assigns it. A task add is structural, so no
// answer-log window may span it.
func (s *shard) add(t *Task) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	m := &Mutation{Kind: MutAddTask, Task: t}
	if err := s.pool.check(m); err != nil {
		return err
	}
	if _, err := s.commit(context.Background(), m); err != nil {
		return err
	}
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
func (s *shard) record(ctx context.Context, a Answer, golden *bool) (pos uint64, err error) {
	_, sp := obs.ChildSpan(ctx, "core.record")
	s.mu.Lock()
	defer s.mu.Unlock()
	_, _, err = s.pool.checkRecord(a, 0, false)
	if sp.Recording() {
		sp.SetAttr(obs.Int("task", int64(a.Task)), obs.Str("worker", a.Worker),
			obs.Int("shard", int64(s.index)))
		sp.SetError(err)
	}
	sp.End()
	if err != nil {
		return 0, err
	}
	m := &Mutation{Kind: MutAnswers, Answers: []Answer{a}}
	if golden != nil {
		m.Golden = []*bool{golden}
	}
	if pos, err = s.commit(ctx, m); err != nil {
		return 0, err
	}
	s.logAnswerLocked(s.version.Add(1), a)
	return pos, nil
}

// recordAll stores a batch of answers under one write-lock acquisition,
// applying the same platform rules as record to each (an answer is checked
// against the batch's earlier answers too). goldens holds the answers'
// golden grades, index-aligned, or is nil when none was graded. The
// accepted answers are journaled as one record at pos and then applied;
// the returned slice is index-aligned with as: nil for applied answers,
// the rejection otherwise — for every otherwise acceptable answer the
// journal's wrapped error, if it refused the batch.
// The version is bumped once when at least one answer was applied — the
// point of batching is to pay the lock, the journal append and the cache
// invalidation once per batch instead of once per answer.
func (s *shard) recordAll(as []Answer, goldens []*bool) (errs []error, pos uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	errs = make([]error, len(as))
	type slot struct {
		task   TaskID
		worker string
	}
	pending := make(map[slot]int)
	m := &Mutation{Kind: MutAnswers, Batch: true, Answers: make([]Answer, 0, len(as))}
	for i, a := range as {
		k := slot{a.Task, a.Worker}
		if _, _, errs[i] = s.pool.checkRecord(a, pending[k], false); errs[i] != nil {
			continue
		}
		pending[k]++
		if goldens != nil && goldens[i] != nil && m.Golden == nil {
			m.Golden = make([]*bool, len(m.Answers), len(as))
		}
		if m.Golden != nil {
			m.Golden = append(m.Golden, goldens[i])
		}
		m.Answers = append(m.Answers, a)
	}
	if len(m.Answers) == 0 {
		return errs, 0
	}
	pos, err := s.commit(context.Background(), m)
	if err != nil {
		for i := range errs {
			if errs[i] == nil {
				errs[i] = err
			}
		}
		return errs, 0
	}
	ver := s.version.Add(1)
	for _, a := range m.Answers {
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
	m := &Mutation{Kind: MutClose, ID: id}
	if s.pool.check(m) != nil {
		return nil
	}
	if _, err := s.commit(context.Background(), m); err != nil {
		return err
	}
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
	if !ok || fresh && s.pool.HasLease(worker, id) {
		return 0, false, nil
	}
	m := &Mutation{Kind: MutLease, Leases: []Lease{{Task: id, Worker: worker, Deadline: deadline}}}
	if s.pool.check(m) != nil {
		return 0, false, nil
	}
	if _, err := s.commit(context.Background(), m); err != nil {
		return 0, false, err
	}
	return id, true, nil
}

// expireLeases sweeps leases past their deadline under the write lock and
// returns the reclaimed assignments; when the journal refuses the sweep
// nothing is reclaimed. Like assignLease, it does not bump the version.
func (s *shard) expireLeases(now time.Time) ([]Lease, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	due := s.pool.dueLeases(now)
	if len(due) > 0 {
		m := &Mutation{Kind: MutExpire, Leases: due}
		if err := s.pool.check(m); err != nil {
			return nil, err
		}
		if _, err := s.commit(context.Background(), m); err != nil {
			return nil, err
		}
	}
	s.pool.dropDueEntries(now)
	return due, nil
}
