package core

import (
	"context"
	"sort"
	"sync"
	"time"
)

// ShardIndex maps a task to one of n shards by hashing its ID (splitmix64
// finalizer, so dense sequential IDs spread evenly instead of clustering).
// Every layer that partitions by task — the sharded serving pool, the
// segmented WAL — must use this same function, so a task's answers, its
// lock, and its journal segment always agree.
func ShardIndex(id TaskID, n int) int {
	if n <= 1 {
		return 0
	}
	x := uint64(id)
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return int(x % uint64(n))
}

// ShardedPool is the serving pool: the tasks and answers partitioned into
// task-hash shards, each a plain Pool behind its own RWMutex with its own
// version counter, lease heap, answer-append log and journal hook — so
// writes to different shards never contend on one lock and throughput
// scales with cores. Per-task calls route by ShardIndex; Version is the
// sum of the shard versions (any mutation bumps exactly one shard, so an
// unchanged sum still proves an unchanged answer set — the /api/results
// cache invariant). Reads that need more than one task's state go through
// ViewAll or ViewDelta, which hand the callback the per-shard Pools under
// every shard's read lock.
type ShardedPool struct {
	shards []*shard

	// addMu serializes Add: task IDs are decided and inserted under it,
	// and nextID is guarded by it.
	addMu  sync.Mutex
	nextID TaskID
}

// ShardedFrom serves parts as the shards of one pool, without copying:
// part i must hold exactly the tasks ShardIndex maps to i of len(parts) —
// empty pools for a fresh server, what a segmented journal's recovery
// rebuilds otherwise. j, when not nil, is attached to every shard as its
// write-ahead journal; its hooks run under the mutating shard's write
// lock, so a journal that routes by the same task hash never serializes
// two shards on one of its own locks.
func ShardedFrom(parts []*Pool, j Journal) *ShardedPool {
	sp := &ShardedPool{shards: make([]*shard, len(parts))}
	for i, part := range parts {
		sp.shards[i] = &shard{pool: part, journal: j, index: i, alogCap: answerLogCap}
		sp.nextID = max(sp.nextID, part.nextID)
	}
	return sp
}

// NumShards returns the shard count.
func (sp *ShardedPool) NumShards() int { return len(sp.shards) }

// ShardFor returns the shard index owning the task. Pure function of the
// ID — callers may use it without any lock.
func (sp *ShardedPool) ShardFor(id TaskID) int { return ShardIndex(id, len(sp.shards)) }

// shardOf returns the shard owning the task.
func (sp *ShardedPool) shardOf(id TaskID) *shard {
	return sp.shards[ShardIndex(id, len(sp.shards))]
}

// workerShard picks the shard an assignment scan starts from: FNV-1a of
// the worker ID, so concurrent workers fan out across shards instead of
// convoying on shard 0.
func (sp *ShardedPool) workerShard(worker string) int {
	h := uint64(14695981039346656037)
	for i := 0; i < len(worker); i++ {
		h ^= uint64(worker[i])
		h *= 1099511628211
	}
	return int(h % uint64(len(sp.shards)))
}

// Version returns the sum of the shard mutation counters. Monotonically
// non-decreasing; two equal observations bracket a window with no task or
// answer mutations on any shard.
func (sp *ShardedPool) Version() uint64 {
	var v uint64
	for _, s := range sp.shards {
		v += s.version.Load()
	}
	return v
}

// Add validates and registers a task, returning its ID. The ID follows
// Pool.Add's rules over the whole pool — a taken ID, or ID 0 once the pool
// holds tasks, is replaced by the next free one; an ID handed out to a
// task that then fails validation or the journal stays used — and is
// decided in one place: under addMu, which is held until the task is on
// the shard ShardIndex names, so two concurrent Adds never settle on one
// ID.
func (sp *ShardedPool) Add(t *Task) (TaskID, error) {
	sp.addMu.Lock()
	defer sp.addMu.Unlock()
	settleID(t, sp.Task(t.ID) != nil, sp.Len() > 0, &sp.nextID)
	if err := sp.shardOf(t.ID).add(t); err != nil {
		return 0, err
	}
	return t.ID, nil
}

// Record validates, journals and applies an answer on its task's shard.
// pos is the answer's journal position (0 without a journal); an error
// wrapping ErrNotJournaled is the journal's refusal, any other error the
// platform rules' rejection. Either way nothing was applied. golden, the
// answer's grade on a golden task (nil otherwise), is journaled with it.
func (sp *ShardedPool) Record(ctx context.Context, a Answer, golden *bool) (pos uint64, err error) {
	return sp.shardOf(a.Task).record(ctx, a, golden)
}

// RecordBatch stores a batch of answers that all belong to the given
// shard under one write-lock acquisition and one journal record, returning
// the per-answer errors (index-aligned with as) and the record's position.
// goldens holds the answers' grades, index-aligned, or is nil. Callers group answers with ShardFor first — that is what makes batch
// ingestion pay one lock and one journal append per touched shard.
func (sp *ShardedPool) RecordBatch(shard int, as []Answer, goldens []*bool) ([]error, uint64) {
	return sp.shards[shard].recordAll(as, goldens)
}

// Close marks a task as finished on its shard; closing an unknown or
// already closed task does nothing.
func (sp *ShardedPool) Close(id TaskID) error { return sp.shardOf(id).close(id) }

// Assign runs the assignment policy shard by shard, starting from the
// worker's home shard, until one yields a task. Each attempt holds only
// that shard's read lock, so assignments for different workers proceed in
// parallel even across mutating shards.
func (sp *ShardedPool) Assign(a Assigner, worker string) (TaskID, bool) {
	start := sp.workerShard(worker)
	for i := range sp.shards {
		s := sp.shards[(start+i)%len(sp.shards)]
		s.mu.RLock()
		id, ok := a.Assign(s.pool, worker)
		s.mu.RUnlock()
		if ok {
			return id, true
		}
	}
	return 0, false
}

// AssignLease atomically assigns and leases on the first shard that
// yields a task, holding only that shard's write lock. The scan runs in
// two passes: first it only accepts tasks the worker does not already
// hold a lease on — otherwise a worker's home shard would keep extending
// the same few leases and fresh tasks on later shards would never be
// reached — and only when every shard is out of fresh work does it fall
// back to a plain pass, so a worker polling past the pool size still
// extends its leases. With one shard the fresh pass would change nothing,
// so it is skipped. Leases do not move the version.
func (sp *ShardedPool) AssignLease(a Assigner, worker string, deadline time.Time) (TaskID, bool, error) {
	if len(sp.shards) > 1 {
		if id, ok, err := sp.scanLease(a, worker, deadline, true); ok || err != nil {
			return id, ok, err
		}
	}
	return sp.scanLease(a, worker, deadline, false)
}

// scanLease tries assignLease shard by shard from the worker's home shard
// and stops at the first assignment or journal error.
func (sp *ShardedPool) scanLease(a Assigner, worker string, deadline time.Time, fresh bool) (TaskID, bool, error) {
	start := sp.workerShard(worker)
	for i := range sp.shards {
		id, ok, err := sp.shards[(start+i)%len(sp.shards)].assignLease(a, worker, deadline, fresh)
		if ok || err != nil {
			return id, ok, err
		}
	}
	return 0, false, nil
}

// ExpireLeases sweeps every shard and returns the reclaimed assignments
// in deterministic (task, worker) order across shards. It stops at the
// first shard whose journal refuses the sweep and returns what the shards
// before it reclaimed.
func (sp *ShardedPool) ExpireLeases(now time.Time) ([]Lease, error) {
	var out []Lease
	for _, s := range sp.shards {
		exp, err := s.expireLeases(now)
		if err != nil {
			return out, err
		}
		out = append(out, exp...)
	}
	if len(out) > 1 {
		sortLeases(out)
	}
	return out, nil
}

// Task returns the task with the given id, or nil. Tasks are immutable
// once added, so the returned pointer is safe to read without the lock.
func (sp *ShardedPool) Task(id TaskID) *Task {
	s := sp.shardOf(id)
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.pool.Task(id)
}

// Len returns the number of tasks across shards.
func (sp *ShardedPool) Len() int {
	n := 0
	for _, s := range sp.shards {
		s.mu.RLock()
		n += s.pool.Len()
		s.mu.RUnlock()
	}
	return n
}

// Answers returns a copy of the answers recorded for a task.
func (sp *ShardedPool) Answers(id TaskID) []Answer {
	s := sp.shardOf(id)
	s.mu.RLock()
	defer s.mu.RUnlock()
	return append([]Answer(nil), s.pool.Answers(id)...)
}

// AnswerCount returns the number of answers for a task.
func (sp *ShardedPool) AnswerCount(id TaskID) int {
	s := sp.shardOf(id)
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.pool.AnswerCount(id)
}

// LeaseCount returns the number of outstanding leases on a task.
func (sp *ShardedPool) LeaseCount(id TaskID) int {
	s := sp.shardOf(id)
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.pool.LeaseCount(id)
}

// ViewAll runs fn with every shard's read lock held, giving it a
// consistent cross-shard snapshot: no mutation can land on any shard while
// fn runs, so Version observed inside fn is exact for the whole view. fn
// receives the shard pools indexed by shard; it must not mutate them or
// retain references past the call.
func (sp *ShardedPool) ViewAll(fn func(pools []*Pool)) {
	sp.ViewDelta(func(v *DeltaView) { fn(v.Pools) })
}

// TaskIDsOf lists the tasks of the shard pools a ViewAll or ViewDelta
// callback received, in ascending ID order. The caller owns the result.
func TaskIDsOf(pools []*Pool) []TaskID {
	var out []TaskID
	for _, p := range pools {
		out = append(out, p.TaskIDs()...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// LeasesOf lists every outstanding lease of such shard pools, sorted by
// (task, worker).
func LeasesOf(pools []*Pool) []Lease {
	var out []Lease
	for _, p := range pools {
		out = append(out, p.Leases()...)
	}
	sortLeases(out)
	return out
}

// WorkerCount returns how many distinct workers answered a task of the
// shard pools a ViewAll or ViewDelta callback received: the size of the
// union of their worker tables, which costs a walk over the workers, not
// the answers.
func WorkerCount(pools []*Pool) int {
	set := make(map[string]struct{})
	for _, p := range pools {
		for w := range p.workers {
			set[w] = struct{}{}
		}
	}
	return len(set)
}

// DeltaView is the read surface ViewDelta hands to its callback: the
// shard pools and versions of a consistent cross-shard snapshot, plus
// incremental accessors over each shard's answer log. Valid only inside
// the callback.
type DeltaView struct {
	// Pools holds the shard pools indexed by shard, exactly as ViewAll
	// passes them; callers must not mutate them or retain references.
	Pools []*Pool
	// Versions holds each shard's version at the snapshot.
	Versions []uint64
	sp       *ShardedPool
}

// Version returns the aggregate pool version of the snapshot (the sum of
// the shard versions, matching ShardedPool.Version).
func (v *DeltaView) Version() uint64 {
	var sum uint64
	for _, sv := range v.Versions {
		sum += sv
	}
	return sum
}

// CanDelta reports whether the shard's answer log fully covers the window
// from version `since` to the snapshot: no trim ate the window's start
// and no task add landed inside it.
func (v *DeltaView) CanDelta(shard int, since uint64) bool {
	return v.sp.shards[shard].canDeltaLocked(since)
}

// AppendedSince appends to dst the answers the shard accepted after
// version `since`, in application order, reporting whether the log
// covered the window (false means the caller must fall back to a full
// snapshot).
func (v *DeltaView) AppendedSince(shard int, since uint64, dst []Answer) ([]Answer, bool) {
	return v.sp.shards[shard].appendedSinceLocked(since, dst)
}

// ViewDelta is ViewAll plus incremental access: fn runs with every
// shard's read lock held (acquired in shard order, the one lock order
// every multi-shard reader uses) and receives a DeltaView exposing the
// shard pools, the exact per-shard versions of the snapshot, and the
// answers appended since a caller-remembered older snapshot. An
// incremental results pipeline snapshots {Versions, delta answers} here,
// then builds datasets and runs inference outside the locks.
func (sp *ShardedPool) ViewDelta(fn func(v *DeltaView)) {
	for _, s := range sp.shards {
		s.mu.RLock()
	}
	defer func() {
		for i := len(sp.shards) - 1; i >= 0; i-- {
			sp.shards[i].mu.RUnlock()
		}
	}()
	v := &DeltaView{
		Pools:    make([]*Pool, len(sp.shards)),
		Versions: make([]uint64, len(sp.shards)),
		sp:       sp,
	}
	for i, s := range sp.shards {
		v.Pools[i] = s.pool
		v.Versions[i] = s.version.Load()
	}
	fn(v)
}
