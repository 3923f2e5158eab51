package durable

import (
	"context"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
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
	// its own file, append mutex, and fsync pipeline, and the store's pool
	// into as many shards, both by core.ShardIndex — so two answers on
	// different shards never serialize on one lock or share an fsync
	// queue. Zero or one keeps the single historical wal.log.
	// Recovery merge-replays whatever segment files the directory holds
	// (ordered by the global sequence number), so a data dir written with
	// one segment count opens correctly under another.
	Segments int
}

// segment is one WAL shard: the log file holding the records of the pool
// shard with the same index. mu serializes sequence assignment and the
// framed write for this segment only — appends to different segments run
// fully in parallel.
type segment struct {
	mu sync.Mutex
	w  *wal

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

// close closes the segment's file once no fsync of it is in flight.
func (seg *segment) close(skipSync bool) error {
	seg.syncMu.Lock()
	defer seg.syncMu.Unlock()
	return seg.w.close(skipSync)
}

// Store owns the serving pool and the segmented WAL that is its
// write-ahead journal, and compacts the journal into snapshots.
//
// There is one copy of the pool: Pool() is what Open recovered, what the
// server serves and what the next recovery will rebuild. The store is
// attached to it as its core.Journal, so every pool mutation runs
// validate → append → apply under the owning shard's write lock. Shard i's
// mutations go to segment i (both sides route by core.ShardIndex). Cross-task
// state (budget spend, golden-screen tallies, the CrowdQL ledger) has no
// home in the pool and is folded here, under the store mutex, as each
// record is appended. A global sequence number is drawn while the owning
// segment's mutex is held, so sequence numbers are unique across segments
// and monotonically increasing within each file — recovery k-way merges
// the segment files by sequence number and replays a valid global order.
//
// Lock order is pool shard → segment mutex → store mutex. Appends to
// pool-less records (the CrowdQL ledger) enter at the segment mutex;
// snapshots take every shard's read lock, then every segment mutex, then
// the store mutex. An fsync is never issued under any of them: the ack
// path waits for its record through Sync after the shard lock is gone.
//
// All methods are safe for concurrent use. After a write error the store
// is sticky-failed: every subsequent append returns the original error,
// so the pool stops accepting mutations the log cannot hold.
type Store struct {
	dir  string
	opts Options
	segs []*segment
	ins  *walInstruments
	pool *core.ShardedPool

	// mu guards the store-global state: the sequence counter, snapshot
	// bookkeeping, sticky error, and the cross-task fold (budget spend,
	// screen tallies, CrowdQL ledger). It is only ever held briefly and
	// never across I/O other than a snapshot's.
	mu        sync.Mutex
	repSpent  int64
	repScreen map[string]core.ScreenTally
	repCQL    cqlReplica
	seq       uint64 // last assigned record sequence number
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

// segFor returns the index of the segment owning a task's records.
func (s *Store) segFor(id core.TaskID) int { return core.ShardIndex(id, len(s.segs)) }

// Pool returns the live pool: the one Open recovered (empty on a fresh
// directory), with the store attached as its journal. It has one shard per
// WAL segment. Mutate it through its methods only; every accepted mutation
// is in the log before it is in memory.
func (s *Store) Pool() *core.ShardedPool { return s.pool }

// Ledger returns the budget spend and a copy of the golden-screen tallies
// the journal adds up to, for the serving layer to restore its budget and
// worker screen from at boot.
func (s *Store) Ledger() (spent int64, screen map[string]core.ScreenTally) {
	s.mu.Lock()
	defer s.mu.Unlock()
	screen = make(map[string]core.ScreenTally, len(s.repScreen))
	for w, t := range s.repScreen {
		screen[w] = t
	}
	return s.repSpent, screen
}

// consistentCut runs fn with every pool shard read-locked, every segment
// mutex and the store mutex held, in that order — the global lock order.
// No mutation can be between its append and its apply while fn runs, so
// the pools fn receives are exactly what the log describes through s.seq.
func (s *Store) consistentCut(fn func(pools []*core.Pool)) {
	s.pool.ViewAll(func(pools []*core.Pool) {
		for _, seg := range s.segs {
			seg.mu.Lock()
		}
		s.mu.Lock()
		defer func() {
			s.mu.Unlock()
			for i := len(s.segs) - 1; i >= 0; i-- {
				s.segs[i].mu.Unlock()
			}
		}()
		fn(pools)
	})
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

// bodyBufs recycles the buffers appendSeg encodes record bodies into.
var bodyBufs = sync.Pool{New: func() any { return new([]byte) }}

// appendSeg journals one record on segment si. The record's body — every
// field but the sequence number — is encoded first, outside every lock;
// then, under the segment's mutex, the record draws the next global
// sequence number, its frame is written and its cross-task part is
// folded, so the file stays in sequence order. sync selects whether the
// record must reach stable storage before returning; pool mutations pass
// false (they run under a shard lock) and their caller waits through Sync
// afterwards. The fsync itself runs after the segment mutex is released,
// through the group-commit path, so appends keep flowing while a flush is
// in flight.
func (s *Store) appendSeg(si int, rec *Record, sync bool) error {
	buf := bodyBufs.Get().(*[]byte)
	tag, body := appendRecordBody((*buf)[:0], rec)
	seg := s.segs[si]
	seg.mu.Lock()
	err := s.writeLocked(seg, tag, rec, body)
	seg.mu.Unlock()
	*buf = body
	bodyBufs.Put(buf)
	if err != nil || !sync {
		return err
	}
	return s.syncSeg(si, rec.Seq)
}

// writeLocked assigns rec its sequence number, writes its record — tag,
// sequence number, body — and folds its cross-task part. The caller holds
// seg.mu.
func (s *Store) writeLocked(seg *segment, tag byte, rec *Record, body []byte) error {
	s.mu.Lock()
	if err := s.err; err != nil {
		s.mu.Unlock()
		return err
	}
	if s.closed {
		s.mu.Unlock()
		return fmt.Errorf("durable: store is closed")
	}
	s.seq++
	rec.Seq = s.seq
	s.mu.Unlock()
	var head [1 + binary.MaxVarintLen64]byte
	if err := seg.w.append(binary.AppendUvarint(append(head[:0], tag), rec.Seq), body); err != nil {
		s.fail(err)
		return err
	}
	seg.appended.Store(rec.Seq)
	s.foldCross(rec)
	return nil
}

// Append implements core.Journal: it appends a pool mutation, which the
// pool validated and applies next, to the segment of its tasks' shard
// (both route by core.ShardIndex) and returns the record's sequence number
// for Sync. An answer's record carries, for golden tasks, whether the
// worker got it right; its cost, one unit, is implied. Append runs under a pool shard's
// write lock and therefore never fsyncs; the record reaches disk with the
// next Sync, SyncTasks or background flush. When ctx carries a recording
// span (the serving layer's tracing mode) the append records as a
// wal.append child of it.
func (s *Store) Append(ctx context.Context, m *core.Mutation) (uint64, error) {
	si := 0
	m.Tasks(func(id core.TaskID) { si = s.segFor(id) })
	rec := Record{Mut: *m}
	_, sp := obs.ChildSpan(ctx, "wal.append")
	err := s.appendSeg(si, &rec, false)
	if sp.Recording() {
		sp.SetAttr(obs.Int("segment", int64(si)), obs.Int("seq", int64(rec.Seq)))
		sp.SetError(err)
	}
	sp.End()
	return rec.Seq, err
}

// Sync is the durability wait of the ack path: under FsyncAlways it
// returns once the record at sequence number pos of segment si (a pool
// shard's index) is on stable storage, through the group commit — one
// fsync acknowledges every record appended before it started. Under the
// other policies it returns at once. It must be called with no shard lock
// held. A failure leaves the store sticky-failed with the record appended:
// memory equals the log, and whether the record survives a power loss is
// not known. With a recording span in ctx the wait records as wal.fsync.
func (s *Store) Sync(ctx context.Context, si int, pos uint64) error {
	if s.opts.Fsync != FsyncAlways {
		return nil
	}
	_, sp := obs.ChildSpan(ctx, "wal.fsync")
	err := s.syncSeg(si, pos)
	if sp.Recording() {
		sp.SetAttr(obs.Int("segment", int64(si)))
		sp.SetError(err)
	}
	sp.End()
	return err
}

// syncSeg flushes segment si through seq, recording a failure as the
// store's sticky error.
func (s *Store) syncSeg(si int, seq uint64) error {
	if err := s.segs[si].syncUpTo(seq); err != nil {
		s.fail(err)
		return err
	}
	return nil
}

// Snapshot publishes the live pool as pool.snap and truncates every WAL
// segment. It holds the consistent cut for the duration, so concurrent
// mutations stall briefly rather than racing the truncation (a record
// appended after the snapshot image was taken must not be discarded with
// the pre-snapshot log). No-op when nothing was journaled since the last
// snapshot.
func (s *Store) Snapshot() error {
	var err error
	s.consistentCut(func(pools []*core.Pool) { err = s.snapshotLocked(pools) })
	return err
}

// snapshotLocked runs inside consistentCut. It does nothing when nothing
// was journaled since the last snapshot.
func (s *Store) snapshotLocked(pools []*core.Pool) error {
	if s.err != nil {
		return s.err
	}
	if s.seq == s.snapSeq {
		return nil
	}
	img, err := s.encodeSnapshot(pools)
	if err == nil {
		err = writeSnapshot(s.dir, img)
	}
	if err != nil {
		// Nothing is truncated: the log still holds every record, and
		// recovery skips whatever a published image already covers.
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

// currentSnapshot encodes (but does not publish) a snapshot of the live
// state; tests use it to simulate a crash between snapshot publication
// and WAL truncation.
func (s *Store) currentSnapshot() (*snapImage, error) {
	var img *snapImage
	var err error
	s.consistentCut(func(pools []*core.Pool) { img, err = s.encodeSnapshot(pools) })
	return img, err
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

	var err error
	s.consistentCut(func(pools []*core.Pool) {
		err = s.snapshotLocked(pools)
		for _, seg := range s.segs {
			if cerr := seg.close(false); err == nil {
				err = cerr
			}
		}
	})
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
		_ = seg.close(true)
	}
	s.bg.Wait()
}

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
