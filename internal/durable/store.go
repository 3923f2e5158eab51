package durable

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// Options configures a Store.
type Options struct {
	// Fsync selects when WAL appends reach stable storage; see FsyncPolicy.
	Fsync FsyncPolicy
	// FsyncEvery is the background flush interval under FsyncInterval
	// (defaults to 100ms when unset).
	FsyncEvery time.Duration
	// SnapshotEvery, when positive, snapshots (and truncates the WAL) on a
	// background ticker whenever records accumulated since the last
	// snapshot. Zero disables automatic snapshots; Close still writes one.
	SnapshotEvery time.Duration
	// Segments splits the WAL into this many task-hash segments, each with
	// its own file, append mutex, and fsync pipeline, partitioned by the
	// same core.ShardIndex the sharded serving pool uses — so two answers
	// on different shards never serialize on one log lock or share an
	// fsync queue. Zero or one keeps the single historical wal.log.
	// Recovery merge-replays whatever segment files the directory holds
	// (ordered by the global sequence number), so a data dir written with
	// one segment count opens correctly under another.
	Segments int
}

// segment is one WAL shard: a log file plus the replica of the pool slice
// whose events it holds. mu serializes sequence assignment, the framed
// write, and the replica fold for this segment only — appends to
// different segments run fully in parallel.
type segment struct {
	mu  sync.Mutex
	w   *wal
	rep *core.Pool

	// Group-commit bookkeeping. appended is the highest sequence number
	// written to this segment's file (stored under mu); synced is the
	// highest known flushed (stored under syncMu). An ack path needing
	// seq ≤ synced returns without touching the file: some other caller's
	// fsync — the group-commit leader — already covered it.
	appended atomic.Uint64
	synced   atomic.Uint64
	syncMu   sync.Mutex
}

// syncUpTo ensures every record of this segment with sequence number ≤
// seq is on stable storage. Concurrent callers elect a leader via syncMu:
// the leader fsyncs once for everything appended so far, and followers
// whose seq is already covered return immediately — one fsync
// acknowledges a whole burst of answers.
func (seg *segment) syncUpTo(seq uint64) error {
	if seg.synced.Load() >= seq {
		return nil
	}
	seg.syncMu.Lock()
	defer seg.syncMu.Unlock()
	if seg.synced.Load() >= seq {
		return nil
	}
	upTo := seg.appended.Load()
	if err := seg.w.sync(); err != nil {
		return err
	}
	seg.synced.Store(upTo)
	return nil
}

// Store journals pool mutations to a segmented WAL, maintains a replica
// of the pool state the journal describes, and compacts the journal into
// snapshots.
//
// Events are routed to segments by task hash (core.ShardIndex — the same
// function the sharded serving pool uses, so a pool shard and its WAL
// segment always agree). Each segment folds its events into its own
// single-threaded core.Pool replica under the segment mutex; cross-task
// state (budget spend, golden-screen tallies) lives under the store
// mutex. A global atomic sequence number is drawn while the owning
// segment's mutex is held, so sequence numbers are unique across segments
// and monotonically increasing within each file — recovery k-way merges
// the segment files by sequence number and replays a valid global order.
//
// All methods are safe for concurrent use. After a write error the store
// is sticky-failed: every subsequent append returns the original error,
// so the serving layer stops acknowledging work the log cannot hold.
type Store struct {
	dir  string
	opts Options
	segs []*segment
	ins  *walInstruments

	// mu guards the store-global state: the sequence counter, snapshot
	// bookkeeping, sticky error, and the cross-task replica (budget spend,
	// screen tallies). Lock order is segment mutexes (ascending) before
	// mu; mu is only ever held briefly and never across I/O.
	mu        sync.Mutex
	repSpent  float64
	repScreen map[string]core.ScreenTally
	repCQL    cqlReplica
	seq       uint64 // last assigned event sequence number
	snapSeq   uint64 // seq covered by the last published snapshot
	err       error  // sticky write error; nil while healthy
	closed    bool

	stop     chan struct{}
	bg       sync.WaitGroup
	replayed obs.Counter
	skipped  obs.Counter
	snaps    obs.Counter
	snapErrs obs.Counter
	recovery RecoveryInfo // what Open found, fixed there
}

// segFor returns the index of the segment owning a task's events.
func (s *Store) segFor(id core.TaskID) int { return core.ShardIndex(id, len(s.segs)) }

// segForWorker routes worker-keyed events (elimination markers) that have
// no task affinity.
func (s *Store) segForWorker(worker string) int {
	if len(s.segs) == 1 {
		return 0
	}
	h := fnv.New64a()
	_, _ = h.Write([]byte(worker))
	return int(h.Sum64() % uint64(len(s.segs)))
}

// replicas returns the per-segment pool replicas in segment order.
func (s *Store) replicas() []*core.Pool {
	reps := make([]*core.Pool, len(s.segs))
	for i, seg := range s.segs {
		reps[i] = seg.rep
	}
	return reps
}

// lockAll acquires every segment mutex in ascending order, then the store
// mutex — the global lock order. Used by snapshots and State, which need
// a consistent cross-segment cut.
func (s *Store) lockAll() {
	for _, seg := range s.segs {
		seg.mu.Lock()
	}
	s.mu.Lock()
}

func (s *Store) unlockAll() {
	s.mu.Unlock()
	for i := len(s.segs) - 1; i >= 0; i-- {
		s.segs[i].mu.Unlock()
	}
}

// State returns a deep copy of the recovered pool (per-segment replicas
// merged into one pool, in ascending task-ID order for multi-segment
// stores) plus the durable budget spend and golden-screen tallies. The
// serving layer adopts the copy as its live pool; the store keeps the
// replicas, so the two evolve independently (the replicas only through
// journaled events).
func (s *Store) State() (*core.Pool, float64, map[string]core.ScreenTally) {
	s.lockAll()
	defer s.unlockAll()
	screen := make(map[string]core.ScreenTally, len(s.repScreen))
	for w, t := range s.repScreen {
		screen[w] = t
	}
	return core.MergePools(s.replicas()), s.repSpent, screen
}

// Err returns the sticky write error, or nil while the store is healthy.
func (s *Store) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// fail records the first write error; later errors keep the original.
func (s *Store) fail(err error) {
	s.mu.Lock()
	if s.err == nil {
		s.err = err
	}
	s.mu.Unlock()
}

// appendSeg journals one event on segment si: assign the next global
// sequence number, write the framed record, and fold the event into the
// segment replica — all under the segment's mutex, so that segment's
// replica state and log contents never diverge and its file stays in
// sequence order. sync selects whether the record must reach stable
// storage before returning (the ack path passes true under FsyncAlways);
// the fsync itself runs after the segment mutex is released, through the
// group-commit path, so appends keep flowing while a flush is in flight.
func (s *Store) appendSeg(si int, ev *Event, sync bool) error {
	seg := s.segs[si]
	seg.mu.Lock()
	s.mu.Lock()
	if err := s.err; err != nil {
		s.mu.Unlock()
		seg.mu.Unlock()
		return err
	}
	if s.closed {
		s.mu.Unlock()
		seg.mu.Unlock()
		return fmt.Errorf("durable: store is closed")
	}
	s.seq++
	ev.Seq = s.seq
	s.mu.Unlock()
	payload, err := json.Marshal(ev)
	if err != nil {
		// The sequence number is abandoned; gaps are harmless, replay only
		// needs relative order.
		seg.mu.Unlock()
		return fmt.Errorf("durable: encoding %s event: %w", ev.Type, err)
	}
	if err := seg.w.append(payload); err != nil {
		seg.mu.Unlock()
		s.fail(err)
		return err
	}
	seg.appended.Store(ev.Seq)
	s.foldCross(ev)
	foldPool(seg.rep, ev, si, len(s.segs))
	seg.mu.Unlock()
	if sync {
		if err := seg.syncUpTo(ev.Seq); err != nil {
			s.fail(err)
			return err
		}
	}
	return nil
}

// AnswerDurable journals an accepted answer together with the budget units
// it was charged and, for golden tasks, whether the worker got it right.
// Under FsyncAlways it returns only after the record is on stable storage.
// The serving layer calls this after Pool.Record succeeds and must not
// acknowledge the client unless it returns nil — that is the
// ack-implies-durable invariant.
func (s *Store) AnswerDurable(a core.Answer, cost float64, golden *bool) error {
	return s.appendSeg(s.segFor(a.Task), &Event{
		Type:   EvAnswerRecorded,
		Answer: answerRecord(a),
		Worker: a.Worker,
		Cost:   cost,
		Golden: golden,
	}, s.opts.Fsync == FsyncAlways)
}

// AnswerDurableCtx is AnswerDurable with trace spans: when ctx carries a
// recording span (the serving layer's tracing mode), the WAL append and
// the fsync record as separate child spans — wal.append and wal.fsync —
// so a trace shows whether an answer's tail latency went to the log
// write or to stable storage. Without a collector in ctx it is exactly
// AnswerDurable: one call, no allocations, same sync path.
func (s *Store) AnswerDurableCtx(ctx context.Context, a core.Answer, cost float64, golden *bool) error {
	if obs.CollectorFrom(ctx) == nil {
		return s.AnswerDurable(a, cost, golden)
	}
	si := s.segFor(a.Task)
	ev := &Event{
		Type:   EvAnswerRecorded,
		Answer: answerRecord(a),
		Worker: a.Worker,
		Cost:   cost,
		Golden: golden,
	}
	// Both spans parent to ctx's current span (the request root), not to
	// each other: append and fsync are sequential phases of one durable
	// write, and reading the trace as two siblings shows their split.
	_, asp := obs.ChildSpan(ctx, "wal.append")
	err := s.appendSeg(si, ev, false)
	asp.SetAttr(obs.Int("segment", int64(si)), obs.Int("seq", int64(ev.Seq)))
	asp.SetError(err)
	asp.End()
	if err != nil {
		return err
	}
	if s.opts.Fsync != FsyncAlways {
		return nil
	}
	// Same split AnswerBatchDurable uses: append under the segment mutex,
	// then group-commit the fsync — here under its own span.
	_, fsp := obs.ChildSpan(ctx, "wal.fsync")
	err = s.syncSeg(si, ev.Seq)
	fsp.SetAttr(obs.Int("segment", int64(si)))
	fsp.SetError(err)
	fsp.End()
	return err
}

// syncSeg flushes segment si through seq, recording a failure as the
// store's sticky error (matching appendSeg's sync path).
func (s *Store) syncSeg(si int, seq uint64) error {
	if err := s.segs[si].syncUpTo(seq); err != nil {
		s.fail(err)
		return err
	}
	return nil
}

// AnswerBatchDurable journals a batch of accepted answers with one append
// (and, under FsyncAlways, one fsync) per touched WAL segment. costs and
// goldens are index-aligned with as; either may be nil. The same
// ack-implies-durable contract as AnswerDurable applies to the batch as a
// whole: callers must not acknowledge any of the batch unless this
// returns nil. When the serving pool's shard count equals the store's
// segment count — how crowdserve always configures them — a per-shard
// batch maps to exactly one segment, so the batch commits atomically; a
// failed append leaves the store sticky-failed either way, and the caller
// rolls the batch back.
func (s *Store) AnswerBatchDurable(as []core.Answer, costs []float64, goldens []*bool) error {
	if len(as) == 0 {
		return nil
	}
	groups := make(map[int]*Event)
	var order []int
	anyGolden := false
	for i := range as {
		si := s.segFor(as[i].Task)
		ev := groups[si]
		if ev == nil {
			ev = &Event{Type: EvAnswerBatch}
			groups[si] = ev
			order = append(order, si)
		}
		ev.Answers = append(ev.Answers, *answerRecord(as[i]))
		if costs != nil {
			ev.Cost += costs[i]
		}
		var g *bool
		if goldens != nil {
			g = goldens[i]
		}
		if g != nil {
			anyGolden = true
		}
		ev.Goldens = append(ev.Goldens, g)
	}
	if !anyGolden {
		for _, ev := range groups {
			ev.Goldens = nil
		}
	}
	sort.Ints(order)
	for _, si := range order {
		if err := s.appendSeg(si, groups[si], false); err != nil {
			return err
		}
	}
	if s.opts.Fsync == FsyncAlways {
		for _, si := range order {
			if err := s.segs[si].syncUpTo(groups[si].Seq); err != nil {
				s.fail(err)
				return err
			}
		}
	}
	return nil
}

// WorkerEliminated journals the audit marker for a worker crossing the
// elimination threshold. Best-effort: the tallies that imply the
// elimination ride the answer records, so losing the marker loses nothing.
func (s *Store) WorkerEliminated(worker string) {
	_ = s.appendSeg(s.segForWorker(worker), &Event{Type: EvWorkerEliminated, Worker: worker}, false)
}

// BudgetCharged journals a budget charge that does not ride an answer
// record (bulk pricing, manual adjustment). Budget events have no task
// affinity and always land on segment 0.
func (s *Store) BudgetCharged(amount float64) error {
	return s.appendSeg(0, &Event{Type: EvBudgetCharged, Amount: amount}, s.opts.Fsync == FsyncAlways)
}

// BudgetRefunded journals the reversal of such a charge.
func (s *Store) BudgetRefunded(amount float64) error {
	return s.appendSeg(0, &Event{Type: EvBudgetRefunded, Amount: amount}, s.opts.Fsync == FsyncAlways)
}

// TaskAdded, TaskClosed, LeaseIssued, and LeasesExpired implement
// core.Journal, so the store can be attached to a ConcurrentPool (or each
// shard of a ShardedPool) with SetJournal. They run under the pool's
// write lock and therefore must not block on fsync; the records reach
// disk with the next answer ack or background flush. Write failures go
// sticky (visible through Err and the answer path) since the interface
// cannot surface them.
func (s *Store) TaskAdded(t *core.Task) {
	_ = s.appendSeg(s.segFor(t.ID), &Event{Type: EvTaskAdded, Task: taskRecord(t)}, false)
}

// TaskClosed implements core.Journal.
func (s *Store) TaskClosed(id core.TaskID) {
	_ = s.appendSeg(s.segFor(id), &Event{Type: EvTaskClosed, TaskID: id}, false)
}

// LeaseIssued implements core.Journal.
func (s *Store) LeaseIssued(l core.Lease) {
	_ = s.appendSeg(s.segFor(l.Task), &Event{Type: EvLeaseIssued, Lease: leaseRecord(l)}, false)
}

// LeasesExpired implements core.Journal. A sweep may reclaim leases on
// several segments; each segment gets its own event so every record stays
// on the log of the shard that owns its task.
func (s *Store) LeasesExpired(ls []core.Lease) {
	groups := make(map[int][]LeaseRecord)
	var order []int
	for _, l := range ls {
		si := s.segFor(l.Task)
		if _, ok := groups[si]; !ok {
			order = append(order, si)
		}
		groups[si] = append(groups[si], *leaseRecord(l))
	}
	sort.Ints(order)
	for _, si := range order {
		_ = s.appendSeg(si, &Event{Type: EvLeaseExpired, Leases: groups[si]}, false)
	}
}

// Snapshot publishes the merged replicas as pool.snap and truncates every
// WAL segment. It holds all segment mutexes for the duration, so
// concurrent appends stall briefly rather than racing the truncation (a
// record appended after the snapshot image was taken must not be
// discarded with the pre-snapshot log). No-op when nothing was journaled
// since the last snapshot.
func (s *Store) Snapshot() error {
	s.lockAll()
	defer s.unlockAll()
	return s.snapshotLocked()
}

// snapshotLocked requires every segment mutex and the store mutex
// (lockAll).
func (s *Store) snapshotLocked() error {
	if s.err != nil {
		return s.err
	}
	if s.seq == s.snapSeq {
		return nil
	}
	snap := buildSnapshot(core.MergePools(s.replicas()), s.repSpent, s.repScreen, s.seq, &s.repCQL)
	if err := writeSnapshot(s.dir, snap); err != nil {
		s.snapErrs.Inc()
		return err
	}
	for _, seg := range s.segs {
		if err := seg.w.truncate(); err != nil {
			// The snapshot covers every truncated record, so a failed
			// truncate only leaves redundant records behind (replay skips
			// them by Seq); the log keeps growing though, so surface the
			// error.
			s.snapErrs.Inc()
			return err
		}
		// Nothing is pending after a truncate; credit the sync high-water
		// mark so the next ack does not fsync an empty file.
		seg.synced.Store(seg.appended.Load())
	}
	s.snapSeq = s.seq
	s.snaps.Inc()
	return nil
}

// currentSnapshot builds (but does not publish) a snapshot of the replica
// state; tests use it to simulate a crash between snapshot publication
// and WAL truncation.
func (s *Store) currentSnapshot() *Snapshot {
	s.lockAll()
	defer s.unlockAll()
	return buildSnapshot(core.MergePools(s.replicas()), s.repSpent, s.repScreen, s.seq, &s.repCQL)
}

// flusher batches fsyncs across all segments under FsyncInterval.
func (s *Store) flusher() {
	defer s.bg.Done()
	t := time.NewTicker(s.opts.FsyncEvery)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
			s.mu.Lock()
			healthy := s.err == nil && !s.closed
			s.mu.Unlock()
			if !healthy {
				continue
			}
			for _, seg := range s.segs {
				if err := seg.syncUpTo(seg.appended.Load()); err != nil {
					s.fail(err)
					break
				}
			}
		}
	}
}

// snapshotter compacts the WAL on a timer.
func (s *Store) snapshotter() {
	defer s.bg.Done()
	t := time.NewTicker(s.opts.SnapshotEvery)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
			_ = s.Snapshot()
		}
	}
}

// Close stops the background goroutines, writes a final snapshot, flushes,
// and closes every WAL segment. The store refuses appends afterwards.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	close(s.stop)
	s.mu.Unlock()
	s.bg.Wait()

	s.lockAll()
	defer s.unlockAll()
	err := s.snapshotLocked()
	for _, seg := range s.segs {
		if cerr := seg.w.close(false); err == nil {
			err = cerr
		}
	}
	return err
}

// Crash simulates kill -9 at the durability boundary, for tests: every
// WAL file descriptor is closed with no flush and no snapshot, and the
// store goes sticky-failed so every later append errors. On-disk state is
// left exactly as a real crash would — whatever write() already reached
// the kernel survives, nothing else does.
func (s *Store) Crash() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.err = fmt.Errorf("durable: store crashed")
	close(s.stop)
	s.mu.Unlock()
	for _, seg := range s.segs {
		_ = seg.w.close(true)
	}
	s.bg.Wait()
}

// Dir returns the data directory the store persists into.
func (s *Store) Dir() string { return s.dir }

// Fsync returns the store's fsync policy.
func (s *Store) Fsync() FsyncPolicy { return s.opts.Fsync }

// Segments returns the number of WAL segments.
func (s *Store) Segments() int { return len(s.segs) }

// RegisterMetrics exposes the store's always-on instruments on a registry:
// WAL append and fsync latency histograms, record/byte/fsync/snapshot
// counters (aggregated across segments), the segment count, and the
// recovery statistics from Open.
func (s *Store) RegisterMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	reg.RegisterHistogram("crowdkit_wal_append_seconds", s.ins.appendLat)
	reg.RegisterHistogram("crowdkit_wal_fsync_seconds", s.ins.fsyncLat)
	reg.RegisterCounter("crowdkit_wal_records_total", &s.ins.records)
	reg.RegisterCounter("crowdkit_wal_bytes_total", &s.ins.bytes)
	reg.RegisterCounter("crowdkit_wal_fsyncs_total", &s.ins.fsyncs)
	reg.RegisterCounter("crowdkit_wal_snapshots_total", &s.snaps)
	reg.RegisterCounter("crowdkit_wal_snapshot_errors_total", &s.snapErrs)
	reg.RegisterCounter("crowdkit_recovery_replayed_records_total", &s.replayed)
	reg.RegisterCounter("crowdkit_recovery_skipped_records_total", &s.skipped)
	reg.GaugeFunc("crowdkit_recovery_replay_seconds", func() float64 { return s.recovery.ReplayDuration.Seconds() })
	reg.GaugeFunc("crowdkit_recovery_snapshot_load_seconds", func() float64 { return s.recovery.SnapshotLoad.Seconds() })
	reg.GaugeFunc("crowdkit_recovery_decode_seconds", func() float64 { return s.recovery.Decode.Seconds() })
	reg.GaugeFunc("crowdkit_recovery_merge_seconds", func() float64 { return s.recovery.Merge.Seconds() })
	reg.GaugeFunc("crowdkit_recovery_apply_seconds", func() float64 { return s.recovery.Apply.Seconds() })
	reg.GaugeFunc("crowdkit_wal_segments", func() float64 { return float64(len(s.segs)) })
	reg.GaugeFunc("crowdkit_wal_size_bytes", func() float64 {
		var total float64
		for i := range s.segs {
			if fi, err := os.Stat(filepath.Join(s.dir, segWALName(i))); err == nil {
				total += float64(fi.Size())
			}
		}
		return total
	})
}
