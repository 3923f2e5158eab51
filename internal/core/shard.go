package core

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
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

// SplitPool partitions p into n pools by ShardIndex of each task, deep-
// copying the bookkeeping (answers, per-worker counts, closed flags,
// leases) so the shards and the source never alias mutable state. Task
// pointers are shared — tasks are immutable once added. Relative insertion
// order is preserved within each shard.
func SplitPool(p *Pool, n int) []*Pool {
	out := make([]*Pool, n)
	for i := range out {
		out[i] = NewPool()
		out[i].nextID = p.nextID
	}
	for _, id := range p.order {
		sp := out[ShardIndex(id, n)]
		sp.tasks[id] = p.tasks[id]
		sp.order = append(sp.order, id)
		if as := p.answers[id]; len(as) > 0 {
			sp.answers[id] = append([]Answer(nil), as...)
		}
		if p.closed[id] {
			sp.closed[id] = true
		}
		if m := p.leases[id]; len(m) > 0 {
			cm := make(map[string]time.Time, len(m))
			for w, d := range m {
				cm[w] = d
				sp.pushLeaseEntry(leaseEntry{deadline: d, task: id, worker: w})
			}
			sp.leases[id] = cm
		}
	}
	for w, m := range p.perWorker {
		for id, c := range m {
			sp := out[ShardIndex(id, n)]
			wt := sp.perWorker[w]
			if wt == nil {
				wt = make(map[TaskID]int)
				sp.perWorker[w] = wt
			}
			wt[id] = c
		}
	}
	return out
}

// ShardedPool partitions the serving pool into task-hash shards, each its
// own ConcurrentPool with its own RWMutex, version counter, lease heap,
// and journal hook — so writes to different shards never contend on one
// lock and throughput scales with cores. The facade preserves the
// ConcurrentPool API and its contracts: per-task calls route by
// ShardIndex, aggregate calls combine the shards, and Version is the sum
// of the shard versions (any mutation bumps exactly one shard, so an
// unchanged sum still proves an unchanged answer set — the /api/results
// cache invariant).
//
// A ShardedPool of one shard delegates every call unchanged, making
// -shards=1 behaviorally identical to the unsharded server.
type ShardedPool struct {
	shards []*ConcurrentPool

	// addMu serializes global task-ID allocation across shards (n > 1
	// only); count tracks total tasks for the ID-0 reassignment quirk.
	addMu  sync.Mutex
	nextID TaskID
	count  atomic.Int64
}

// NewShardedPool wraps p (a fresh empty pool when nil) into n shards.
// n <= 1 wraps p directly in a single shard; n > 1 splits the pool's
// current contents by task hash. As with NewConcurrentPool, the wrapped
// pool must not be mutated directly afterwards.
func NewShardedPool(p *Pool, n int) *ShardedPool {
	if p == nil {
		p = NewPool()
	}
	if n <= 1 {
		return ShardedFrom([]*Pool{p}, nil)
	}
	return ShardedFrom(SplitPool(p, n), nil)
}

// ShardedFrom serves parts as the shards of one pool, without copying:
// part i must hold exactly the tasks ShardIndex maps to i of len(parts) —
// what SplitPool produces and what a segmented journal's recovery
// rebuilds. j, when not nil, is attached to every shard as its write-ahead
// journal; its hooks run under the mutating shard's write lock, so a
// journal that routes by the same task hash never serializes two shards
// on one of its own locks.
func ShardedFrom(parts []*Pool, j Journal) *ShardedPool {
	sp := &ShardedPool{shards: make([]*ConcurrentPool, len(parts))}
	for i, part := range parts {
		sp.shards[i] = &ConcurrentPool{pool: part, journal: j, shard: i}
		if part.nextID > sp.nextID {
			sp.nextID = part.nextID
		}
		sp.count.Add(int64(part.Len()))
	}
	return sp
}

// NumShards returns the shard count.
func (sp *ShardedPool) NumShards() int { return len(sp.shards) }

// ShardFor returns the shard index owning the task. Pure function of the
// ID — callers may use it without any lock.
func (sp *ShardedPool) ShardFor(id TaskID) int { return ShardIndex(id, len(sp.shards)) }

// shardOf returns the ConcurrentPool owning the task.
func (sp *ShardedPool) shardOf(id TaskID) *ConcurrentPool {
	return sp.shards[ShardIndex(id, len(sp.shards))]
}

// workerShard picks the shard an assignment scan starts from: FNV-1a of
// the worker ID, so concurrent workers fan out across shards instead of
// convoying on shard 0.
func (sp *ShardedPool) workerShard(worker string) int {
	if len(sp.shards) == 1 {
		return 0
	}
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
		v += s.Version()
	}
	return v
}

// Add registers a task: the facade allocates a globally unique ID
// (mirroring Pool.Add's assignment rules), then routes the task to its
// shard.
func (sp *ShardedPool) Add(t *Task) (TaskID, error) {
	if len(sp.shards) == 1 {
		id, err := sp.shards[0].Add(t)
		if err == nil {
			sp.count.Add(1)
		}
		return id, err
	}
	sp.addMu.Lock()
	if sp.shardOf(t.ID).Task(t.ID) != nil || t.ID == 0 && sp.count.Load() > 0 {
		t.ID = sp.nextID
	}
	if t.ID >= sp.nextID {
		sp.nextID = t.ID + 1
	} else if t.ID == 0 {
		t.ID = sp.nextID
		sp.nextID++
	}
	sp.addMu.Unlock()
	id, err := sp.shardOf(t.ID).Add(t)
	if err == nil {
		sp.count.Add(1)
	}
	return id, err
}

// Record stores an answer on the owning shard; see ConcurrentPool.Record.
func (sp *ShardedPool) Record(ctx context.Context, a Answer, c Charge) (uint64, error) {
	return sp.shardOf(a.Task).Record(ctx, a, c)
}

// RecordBatch stores a batch of answers that all belong to the given
// shard under one write-lock acquisition; see ConcurrentPool.RecordAll.
// Callers group answers with ShardFor first — that is what makes batch
// ingestion pay one lock and one journal append per touched shard.
func (sp *ShardedPool) RecordBatch(shard int, as []Answer, cs []Charge) ([]error, uint64) {
	return sp.shards[shard].RecordAll(as, cs)
}

// Close marks a task as finished on its shard.
func (sp *ShardedPool) Close(id TaskID) error { return sp.shardOf(id).Close(id) }

// Assign runs the assignment policy shard by shard, starting from the
// worker's home shard, until one yields a task. Each attempt holds only
// that shard's read lock, so assignments for different workers proceed in
// parallel even across mutating shards.
func (sp *ShardedPool) Assign(a Assigner, worker string) (TaskID, bool) {
	start := sp.workerShard(worker)
	for i := 0; i < len(sp.shards); i++ {
		if id, ok := sp.shards[(start+i)%len(sp.shards)].Assign(a, worker); ok {
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
// extends its leases exactly as on the unsharded pool.
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
		exp, err := s.ExpireLeases(now)
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

// ActiveLeases returns the total outstanding leases across shards.
func (sp *ShardedPool) ActiveLeases() int {
	n := 0
	for _, s := range sp.shards {
		n += s.ActiveLeases()
	}
	return n
}

// LeaseCount returns the number of outstanding leases on a task.
func (sp *ShardedPool) LeaseCount(id TaskID) int { return sp.shardOf(id).LeaseCount(id) }

// HasLease reports whether the worker holds a lease on the task.
func (sp *ShardedPool) HasLease(worker string, id TaskID) bool {
	return sp.shardOf(id).HasLease(worker, id)
}

// InFlight returns committed answers plus outstanding leases for a task.
func (sp *ShardedPool) InFlight(id TaskID) int { return sp.shardOf(id).InFlight(id) }

// ViewAll runs fn with every shard's read lock held (acquired in shard
// order), giving it a consistent cross-shard snapshot: no mutation can
// land on any shard while fn runs, so Version observed inside fn is exact
// for the whole view. fn receives the shard pools indexed by shard; it
// must not mutate them or retain references past the call. This is the
// sharded replacement for ConcurrentPool.View on paths (stats, results)
// that need global consistency.
func (sp *ShardedPool) ViewAll(fn func(pools []*Pool)) {
	for _, s := range sp.shards {
		s.mu.RLock()
	}
	defer func() {
		for i := len(sp.shards) - 1; i >= 0; i-- {
			sp.shards[i].mu.RUnlock()
		}
	}()
	pools := make([]*Pool, len(sp.shards))
	for i, s := range sp.shards {
		pools[i] = s.pool
	}
	fn(pools)
}

// TaskIDsOf lists the tasks of the shard pools a ViewAll or ViewDelta
// callback received, in the order a ShardedPool presents them: insertion
// order for a single shard, ascending ID across several. The caller must
// not mutate the result.
func TaskIDsOf(pools []*Pool) []TaskID {
	if len(pools) == 1 {
		return pools[0].TaskIDs()
	}
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
	if len(pools) > 1 {
		sortLeases(out)
	}
	return out
}

// EnableDeltaLog turns on the per-shard answer-append log with the given
// per-shard capacity, making ViewDelta's incremental accessors available
// from each shard's current version onward. See
// ConcurrentPool.EnableAnswerLog.
func (sp *ShardedPool) EnableDeltaLog(capacity int) {
	for _, s := range sp.shards {
		s.EnableAnswerLog(capacity)
	}
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
// and no structural mutation (task add, answer removal) landed inside it.
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
// shard's read lock held and receives a DeltaView exposing the shard
// pools, the exact per-shard versions of the snapshot, and the answers
// appended since a caller-remembered older snapshot. An incremental
// results pipeline snapshots {Versions, delta answers} here, then builds
// datasets and runs inference outside the locks.
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

// Task returns the task with the given id, or nil.
func (sp *ShardedPool) Task(id TaskID) *Task { return sp.shardOf(id).Task(id) }

// Len returns the number of tasks across shards.
func (sp *ShardedPool) Len() int {
	n := 0
	for _, s := range sp.shards {
		n += s.Len()
	}
	return n
}

// TaskIDs returns every task id: insertion order for a single shard
// (matching ConcurrentPool), ascending ID order across multiple shards.
func (sp *ShardedPool) TaskIDs() []TaskID {
	if len(sp.shards) == 1 {
		return sp.shards[0].TaskIDs()
	}
	var out []TaskID
	for _, s := range sp.shards {
		out = append(out, s.TaskIDs()...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Answers returns a copy of the answers recorded for a task.
func (sp *ShardedPool) Answers(id TaskID) []Answer { return sp.shardOf(id).Answers(id) }

// AnswerCount returns the number of answers for a task.
func (sp *ShardedPool) AnswerCount(id TaskID) int { return sp.shardOf(id).AnswerCount(id) }

// TotalAnswers returns the number of answers across all shards.
func (sp *ShardedPool) TotalAnswers() int {
	n := 0
	for _, s := range sp.shards {
		n += s.TotalAnswers()
	}
	return n
}

// HasAnswered reports whether the worker already answered the task.
func (sp *ShardedPool) HasAnswered(worker string, id TaskID) bool {
	return sp.shardOf(id).HasAnswered(worker, id)
}

// Closed reports whether the task has been closed.
func (sp *ShardedPool) Closed(id TaskID) bool { return sp.shardOf(id).Closed(id) }

// OpenTasks returns the ids of open tasks: insertion order for a single
// shard, ascending ID order across multiple shards.
func (sp *ShardedPool) OpenTasks() []TaskID {
	if len(sp.shards) == 1 {
		return sp.shards[0].OpenTasks()
	}
	var out []TaskID
	for _, s := range sp.shards {
		out = append(out, s.OpenTasks()...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// EligibleFor returns open tasks the worker has not answered yet, in the
// same order contract as OpenTasks.
func (sp *ShardedPool) EligibleFor(worker string) []TaskID {
	if len(sp.shards) == 1 {
		return sp.shards[0].EligibleFor(worker)
	}
	var out []TaskID
	for _, s := range sp.shards {
		out = append(out, s.EligibleFor(worker)...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Workers returns the sorted ids of all workers that answered on any
// shard.
func (sp *ShardedPool) Workers() []string {
	if len(sp.shards) == 1 {
		return sp.shards[0].Workers()
	}
	seen := make(map[string]bool)
	for _, s := range sp.shards {
		for _, w := range s.Workers() {
			seen[w] = true
		}
	}
	out := make([]string, 0, len(seen))
	for w := range seen {
		out = append(out, w)
	}
	sort.Strings(out)
	return out
}

// OptionVotes tallies option votes for a choice-type task.
func (sp *ShardedPool) OptionVotes(id TaskID) []int { return sp.shardOf(id).OptionVotes(id) }
