package durable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
)

// RecoveryInfo reports what Open found in the data directory.
type RecoveryInfo struct {
	// SnapshotLoaded is true when a pool.snap was loaded.
	SnapshotLoaded bool
	// SnapshotSeq is the loaded snapshot's LastSeq (0 without a snapshot).
	SnapshotSeq uint64
	// Replayed counts WAL records applied on top of the snapshot.
	Replayed int
	// Skipped counts WAL records at or below SnapshotSeq (a crash landed
	// between snapshot publication and WAL truncation) that were not
	// re-applied.
	Skipped int
	// TornBytes is the total size of invalid tails truncated off the WAL
	// segments (0 when every log ended cleanly).
	TornBytes int64
	// ReplayDuration is the wall time spent loading and replaying.
	ReplayDuration time.Duration
	// SnapshotLoad, Decode, Merge, and Apply split ReplayDuration into the
	// recovery pipeline's phases, whose parts run one after another:
	// reading pool.snap and checking its sections, and, once the WAL is
	// decoded, restoring them into the pool shards; reading, checking and
	// decoding every WAL file into an index of its records and counts of
	// its answers per task and shard (and truncating torn tails, once the
	// snapshot is restored); merging the indexes by sequence number while
	// folding the cross-task state and routing pool mutations to their
	// segments; and, per segment, applying its mutations, decoded a second
	// time, to its pool shard. Each shard is sized once, by the snapshot
	// restore or else by the apply step, for every task and answer the
	// snapshot and the WAL hold (core.Pool.Reserve), and each task once
	// for its answers in both (core.Pool.Grow). What is left over
	// (directory scan, opening the segment files, a forced reshard
	// snapshot) is not attributed. No phase includes a garbage collection:
	// Open holds the collector throughout (gcHold).
	SnapshotLoad time.Duration
	Decode       time.Duration
	Merge        time.Duration
	Apply        time.Duration
	// Segments is the number of WAL segments the store operates with.
	Segments int
	// Tasks, Answers, and BudgetSpent describe the recovered state.
	Tasks       int
	Answers     int
	BudgetSpent int64
	// CQLSessions counts recovered open CrowdQL sessions;
	// CQLRunningQueries counts queries that were mid-flight at crash time
	// (their handles come back with status "recovered"); CQLOpenQuestions
	// counts crowd questions whose budget reservation was never released —
	// the server's recovery pass closes them and refunds the remainder.
	CQLSessions       int
	CQLRunningQueries int
	CQLOpenQuestions  int
}

// Empty reports whether recovery found any durable state at all.
func (ri *RecoveryInfo) Empty() bool {
	return !ri.SnapshotLoaded && ri.Replayed == 0 && ri.Skipped == 0
}

// errJSONEra fails Open on a directory that holds JSON WAL records or a
// format-1 (JSON) pool.snap. Open reads the formats every build since
// c4c6125 writes: binary WAL records and the format-2 snapshot. Commit
// ccc93f0 is the last that reads the JSON ones; its Open rewrites such a
// directory in the current format.
var errJSONEra = errors.New("durable: the data directory holds JSON WAL records or a format-1 pool.snap, " +
	"which this build does not read; open it once with a build of commit ccc93f0 to convert it")

// legacyJSON reports whether a WAL record payload or a pool.snap file is
// JSON: no binary record tag and no format-2 header starts with '{'.
func legacyJSON(data []byte) bool { return len(data) > 0 && data[0] == '{' }

// gcHold suspends the collector while at least one Open runs. Recovery is
// a bulk load: in all it allocates at most 1.6 times the pool it returns
// (TestOpenAllocBoundedByLiveHeap), so a collection during it marks a heap
// that is almost all live and reclaims next to nothing, while its write
// barriers and assists slow every pointer store the rebuild makes. The
// first concurrent Open disables the collector and keeps the caller's GC
// percent; the last one to return restores it. It is package state
// because the GC percent is the process's. The runtime still collects at
// the memory limit (GOMEMLIMIT), which a negative GC percent leaves on.
var gcHold struct {
	sync.Mutex
	opens   int
	percent int
}

// holdGC suspends the collector until the returned release is called.
func holdGC() (release func()) {
	gcHold.Lock()
	if gcHold.opens++; gcHold.opens == 1 {
		gcHold.percent = debug.SetGCPercent(-1)
	}
	gcHold.Unlock()
	return func() {
		gcHold.Lock()
		if gcHold.opens--; gcHold.opens == 0 {
			debug.SetGCPercent(gcHold.percent)
		}
		gcHold.Unlock()
	}
}

// Open recovers state from dir (creating it if needed) and returns a store
// ready to journal new mutations, plus a report of what was recovered.
// A torn or corrupt WAL tail is truncated, not an error: the discarded
// suffix was never acknowledged. No garbage collection runs while Open
// does (see gcHold), unless the heap reaches the memory limit; the
// caller's GC percent is back when it returns, on success or failure.
//
// Recovery restores the snapshot straight into the pool's shards, one per
// configured segment, each on its own goroutine decoding its own section of
// pool.snap (or, when the snapshot was cut with another shard count, taking
// its tasks from every section), and replays every WAL segment file found
// in the directory — including files from a previous layout with a different
// segment count, whose records are re-routed to their current owners — as a
// three-step pipeline: the files are decoded in parallel into indexes of
// their records, the indexes merged by sequence number on one goroutine
// (which folds the cross-task state and queues each pool mutation for the
// segment owning its task), and the queues are applied one goroutine per
// segment. The WAL files are decoded between checking the snapshot and
// restoring it, so that every shard is built in bulk, sized once for all
// it will hold: one array of answers and one of voters per shard, each
// task's carved from them once (core.Pool.Reserve). No decoded copy of the log is held: a queued record is decoded
// again from the file's bytes as it is applied. The shards recovery filled
// are the pool the store then serves and journals (Store.Pool); nothing is
// copied. Leftover files from a larger previous layout are folded into a
// fresh snapshot and deleted, so the directory converges to the configured
// layout. A directory in a format this build does not read fails with
// errJSONEra, with errFractionalMoney when it holds money that is not
// whole units, or with errUnknownRecord when it holds a WAL record of a
// kind a newer build wrote, before anything in it is written.
func Open(dir string, opts Options) (*Store, *RecoveryInfo, error) {
	defer holdGC()()
	if opts.Fsync == FsyncInterval && opts.FsyncEvery <= 0 {
		opts.FsyncEvery = 100 * time.Millisecond
	}
	if opts.Segments < 1 {
		opts.Segments = 1
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("durable: creating data dir: %w", err)
	}
	start := time.Now()
	info := &RecoveryInfo{Segments: opts.Segments}
	s := &Store{
		dir:       dir,
		opts:      opts,
		segs:      make([]*segment, opts.Segments),
		ins:       newWALInstruments(),
		repScreen: make(map[string]core.ScreenTally),
		stop:      make(chan struct{}),
	}
	pools := make([]*core.Pool, len(s.segs))
	for i := range s.segs {
		s.segs[i] = &segment{}
		pools[i] = core.NewPool()
	}

	snap, found, err := readSnapshot(dir)
	if err != nil {
		return nil, nil, err
	}
	var restore snapRestore
	if found {
		if restore, err = s.loadSnapshot(snap, len(pools)); err != nil {
			return nil, nil, err
		}
		info.SnapshotLoaded = true
		info.SnapshotSeq = s.snapSeq
	}
	info.SnapshotLoad = time.Since(start)

	files, err := findWALs(dir)
	if err != nil {
		return nil, nil, err
	}
	phase := time.Now()
	if err := decodeWALs(files, len(s.segs), s.snapSeq); err != nil {
		return nil, nil, err
	}
	counts := sumCounts(files, len(s.segs))
	info.Decode = time.Since(phase)

	if restore != nil {
		phase = time.Now()
		err := inParallel(len(pools), func(si int) error { return restore(pools[si], si, &counts[si]) })
		if err != nil {
			return nil, nil, err
		}
		info.SnapshotLoad += time.Since(phase)
	}

	phase = time.Now()
	if info.TornBytes, err = cutTornTails(files); err != nil {
		return nil, nil, err
	}
	info.Decode += time.Since(phase)

	phase = time.Now()
	queues, err := s.mergeRoute(files, counts, info)
	if err != nil {
		return nil, nil, err
	}
	info.Merge = time.Since(phase)

	phase = time.Now()
	if err := applyQueues(pools, queues, counts, restore == nil); err != nil {
		return nil, nil, err
	}
	info.Apply = time.Since(phase)
	s.pool = core.ShardedFrom(pools, s)

	if err := s.openSegments(files); err != nil {
		// A failed Open hands no store back, so nothing else would ever
		// close the segment files already opened.
		for _, seg := range s.segs {
			if seg.w != nil {
				_ = seg.w.close(true)
			}
		}
		return nil, nil, err
	}
	s.replayed.Add(int64(info.Replayed))
	s.skipped.Add(int64(info.Skipped))

	info.ReplayDuration = time.Since(start)
	for _, p := range pools {
		info.Tasks += p.Len()
		info.Answers += p.TotalAnswers()
	}
	info.BudgetSpent = s.repSpent
	info.CQLSessions = len(s.repCQL.sessions)
	for _, sess := range s.repCQL.sessions {
		info.CQLRunningQueries += len(sess.Running)
	}
	info.CQLOpenQuestions = len(s.repCQL.questions)
	s.recovery = *info

	if opts.Fsync == FsyncInterval {
		s.bg.Add(1)
		go s.flusher()
	}
	if opts.SnapshotEvery > 0 {
		s.bg.Add(1)
		go s.snapshotter()
	}
	return s, info, nil
}

// walFile is one WAL segment file found in the data directory and, once
// decoded, an index of the records it holds.
type walFile struct {
	idx  int // segment index the file name encodes
	path string

	index      []walEntry    // one per decoded record, in file order (ascending seq)
	counts     []shardCounts // per current shard, of the records past the snapshot
	validBytes int64         // where the readable, decodable prefix ends
	torn       int64         // bytes past validBytes: torn, corrupt or undecodable
	err        error
}

// shardCounts is what the decoders count, for one current shard, of the
// records past the snapshot, so that the shard's pool and apply queue are
// each sized once: the answers per task, all of them, the task adds, and
// the records the shard is the one owner of.
type shardCounts struct {
	need    map[core.TaskID]int
	answers int
	adds    int
	owned   int
}

// walEntry is what recovery keeps of one decoded record until it is
// applied: where its payload is, and what the merge needs to fold and
// route it without decoding it again.
type walEntry struct {
	seq     uint64
	payload []byte // the record's bytes, in the file read whole
	answers int32  // the answers of an answer record, each a unit of spend
	owner   int32  // the current shard owning all its tasks; -1: none or several
	task    *core.Task
	// full is the record itself, kept for one the merge folds beyond its
	// answer count (foldsBeyondCount) or splits across owners.
	full *Record
}

// findWALs lists every WAL segment file present, current layout or not, in
// ascending segment order.
func findWALs(dir string) ([]*walFile, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("durable: scanning data dir: %w", err)
	}
	var files []*walFile
	for _, e := range entries {
		if idx, ok := parseSegWALName(e.Name()); ok {
			files = append(files, &walFile{idx: idx, path: filepath.Join(dir, e.Name())})
		}
	}
	sort.Slice(files, func(i, j int) bool { return files[i].idx < files[j].idx })
	return files, nil
}

// walk reads the file and decodes its frames in order into one reused
// Record, calling visit with each record and its payload. It stops at the
// first frame that does not verify or decode and sets where the valid
// prefix ends; a missing file is an empty log. Worker names and task
// options are interned per file. A JSON record sets f.err to errJSONEra, a record with money
// that is not whole units to errFractionalMoney, and a record with a tag
// this build does not know to errUnknownRecord, so the file is refused,
// not cut.
func (f *walFile) walk(visit func(rec *Record, payload []byte)) {
	data, err := os.ReadFile(f.path)
	if err != nil && !os.IsNotExist(err) {
		f.err = fmt.Errorf("durable: reading WAL: %w", err)
		return
	}
	// The frames' length fields bound the record count from above: sized
	// to them, the index is never copied as it grows.
	frames := 0
	for off := 0; off+frameHeader <= len(data); frames++ {
		n := binary.LittleEndian.Uint32(data[off:])
		if n == 0 || n > maxRecordBytes {
			break
		}
		off += frameHeader + int(n)
	}
	f.index = make([]walEntry, 0, frames)
	var rec Record
	names := make(map[string]string)
	off := 0
	for off < len(data) {
		payload, _, ok := splitFrame(data[off:], maxRecordBytes)
		if !ok {
			break
		}
		if legacyJSON(payload) {
			f.err = fmt.Errorf("%w (%s)", errJSONEra, filepath.Base(f.path))
			return
		}
		if err := decodeRecord(payload, &rec, names); errors.Is(err, errFractionalMoney) {
			f.err = fmt.Errorf("%w (%s, record seq %d)", err, filepath.Base(f.path), rec.Seq)
			return
		} else if errors.Is(err, errUnknownRecord) {
			f.err = fmt.Errorf("%w (%s, tag %d at offset %d)", err, filepath.Base(f.path), payload[0], off)
			return
		} else if err != nil {
			// The frame checksum verified but the payload does not decode:
			// treat it like a torn tail and cut this file here. Everything
			// after an undecodable record in the same file is unreachable
			// anyway — replay could not order it.
			break
		}
		visit(&rec, payload)
		off += frameHeader + len(payload)
	}
	f.validBytes, f.torn = int64(off), int64(len(data)-off)
}

// decode walks the file and indexes every record for the merge, under a
// layout of segs shards: its owner, its answer count and, for a task add,
// the task; a record the merge must fold beyond its answer count or split
// across owners is kept whole. The answers of the records past the
// snapshot's LastSeq (after) are counted per task, and per shard so are
// all of them, the task adds and the records it owns (shardCounts).
func (f *walFile) decode(segs int, after uint64) {
	f.counts = make([]shardCounts, segs)
	for si := range f.counts {
		f.counts[si].need = make(map[core.TaskID]int)
	}
	f.walk(func(rec *Record, payload []byte) {
		m := &rec.Mut
		e := walEntry{seq: rec.Seq, payload: payload, answers: int32(len(m.Answers)), owner: -1, task: m.Task}
		tasks := 0
		m.Tasks(func(id core.TaskID) {
			if si := int32(core.ShardIndex(id, segs)); tasks == 0 {
				e.owner = si
			} else if si != e.owner {
				e.owner = -1 // split across owners
			}
			tasks++
		})
		if e.owner < 0 || foldsBeyondCount(rec) {
			e.full = detach(rec)
		}
		f.index = append(f.index, e)
		if rec.Seq > after {
			if e.owner >= 0 {
				c := &f.counts[e.owner]
				c.owned++
				if m.Kind == core.MutAddTask {
					c.adds++
				}
			}
			for _, a := range m.Answers {
				c := &f.counts[core.ShardIndex(a.Task, segs)]
				c.need[a.Task]++
				c.answers++
			}
		}
	})
}

// detach returns a copy of rec that shares no slice with it.
func detach(rec *Record) *Record {
	c, m := *rec, &rec.Mut
	c.Mut.Answers, c.Mut.Golden, c.Mut.Leases = slices.Clone(m.Answers), slices.Clone(m.Golden), slices.Clone(m.Leases)
	return &c
}

// decodeWALs decodes every file on its own goroutine — the files share
// nothing until the merge — and returns the first file's refusal, if any.
func decodeWALs(files []*walFile, segs int, after uint64) error {
	var wg sync.WaitGroup
	for _, f := range files {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f.decode(segs, after)
		}()
	}
	wg.Wait()
	for _, f := range files {
		if f.err != nil {
			return f.err
		}
	}
	return nil
}

// sumCounts adds up the files' counts per shard. Usually one file holds a
// shard's tasks and its counts serve as they are; else the first file's
// take the others'.
func sumCounts(files []*walFile, segs int) []shardCounts {
	sum := make([]shardCounts, segs)
	for _, f := range files {
		for si, c := range f.counts {
			t := &sum[si]
			if t.need == nil {
				*t = c
				continue
			}
			for id, n := range c.need {
				t.need[id] += n
			}
			t.answers, t.adds, t.owned = t.answers+c.answers, t.adds+c.adds, t.owned+c.owned
		}
	}
	return sum
}

// cutTornTails truncates each decoded file's torn or undecodable tail, so
// the log ends on a record boundary again, and returns the bytes cut.
// Open calls it once nothing can refuse the directory any more.
func cutTornTails(files []*walFile) (tornBytes int64, err error) {
	for _, f := range files {
		if f.torn > 0 {
			if err := os.Truncate(f.path, f.validBytes); err != nil {
				return 0, fmt.Errorf("durable: truncating torn WAL tail: %w", err)
			}
		}
		tornBytes += f.torn
	}
	return tornBytes, nil
}

// mergeRoute is the serial middle of recovery. Sequence numbers are unique
// globally and ascending within each file, so a k-way merge of the files'
// indexes visits every record in a valid interleaving of the original
// mutation order. Records the snapshot already covers are skipped; for the
// rest the cross-task part is folded here, in that order — the spend
// clamps at zero and the CrowdQL ledger depends on publish/refund/close
// order, so neither can be split across goroutines — and the pool
// mutation is queued for the segment that owns its tasks under the current
// layout. All of a task's mutations land in one queue in sequence order,
// which is all the per-segment appliers need.
//
// A directory with one WAL file holds every sequence number from the
// first record on, so a record that does not follow its predecessor, or a
// first record past the snapshot's LastSeq + 1, fails recovery. With
// several files a gap is a legal crash outcome: sequence numbers are drawn
// under the store mutex and written under each segment's own, so a crash
// or a failed write can lose n in one file while n+1 reached another.
func (s *Store) mergeRoute(files []*walFile, counts []shardCounts, info *RecoveryInfo) ([][]queued, error) {
	queues := make([][]queued, len(s.segs))
	for si := range queues {
		queues[si] = make([]queued, 0, counts[si].owned) // split records' parts come on top
	}
	heads := make([]int, len(files))
	prev := uint64(0) // the single file's previous record
	for {
		var e *walEntry
		from := -1
		for i, f := range files {
			if heads[i] < len(f.index) && (e == nil || f.index[heads[i]].seq < e.seq) {
				e, from = &f.index[heads[i]], i
			}
		}
		if e == nil {
			return queues, nil
		}
		heads[from]++
		if len(files) == 1 {
			if prev != 0 && e.seq != prev+1 || prev == 0 && e.seq > s.snapSeq+1 {
				return nil, fmt.Errorf("durable: %s: record seq %d follows seq %d; the sequence numbers of a single WAL file have no gaps",
					filepath.Base(files[0].path), e.seq, max(prev, s.snapSeq))
			}
			prev = e.seq
		}
		if e.seq <= s.snapSeq {
			info.Skipped++
			continue
		}
		info.Replayed++
		s.seq = max(s.seq, e.seq)
		if e.full != nil {
			s.foldCross(e.full)
		} else {
			s.repSpent += int64(e.answers) // all an answer record without grades folds
		}
		switch {
		case e.owner >= 0:
			queues[e.owner] = append(queues[e.owner], queued{e, files[from]})
		case e.full != nil && e.full.Mut.Kind != 0:
			s.split(queues, e.full, files[from])
		}
	}
}

// split queues a batch or lease sweep an older layout journaled across
// several current owners: each owner gets a record of its own tasks' part.
func (s *Store) split(queues [][]queued, rec *Record, file *walFile) {
	parts := make([]*Record, len(queues))
	part := func(id core.TaskID) *core.Mutation {
		si := s.segFor(id)
		if parts[si] == nil {
			parts[si] = &Record{Seq: rec.Seq, Mut: core.Mutation{Kind: rec.Mut.Kind, Batch: rec.Mut.Batch}}
			queues[si] = append(queues[si], queued{&walEntry{seq: rec.Seq, full: parts[si]}, file})
		}
		return &parts[si].Mut
	}
	for _, a := range rec.Mut.Answers {
		p := part(a.Task)
		p.Answers = append(p.Answers, a)
	}
	for _, l := range rec.Mut.Leases {
		p := part(l.Task)
		p.Leases = append(p.Leases, l)
	}
}

// queued is one record in a segment's apply queue, with the WAL file it
// was read from, for the error that reports it if the pool refuses it.
type queued struct {
	e    *walEntry
	file *walFile
}

// applyQueues replays each segment's queued mutations into its pool shard
// (core.Pool.Replay), one goroutine per segment: the shards are disjoint
// and each queue holds its tasks' mutations in sequence order. Each shard
// is sized once for what its decoders counted (core.Pool.Reserve) — by the
// snapshot restore when there was a snapshot (reserve false), here
// otherwise — and each task the queue adds is grown right after its add
// for the answers counted for it (core.Pool.Grow), so its arrays are
// carved once from the shard's. A task add replays the task its decoder
// kept, a kept record replays as it is, and any other record is decoded
// again, into one Record the applier reuses. The first mutation a shard
// refuses fails recovery, naming its WAL file and sequence number.
func applyQueues(pools []*core.Pool, queues [][]queued, counts []shardCounts, reserve bool) error {
	return inParallel(len(queues), func(si int) error {
		p, need := pools[si], counts[si].need
		if reserve {
			p.Reserve(counts[si].adds, counts[si].answers)
		}
		var rec Record
		add := core.Mutation{Kind: core.MutAddTask}
		names := make(map[string]string)
		for _, q := range queues[si] {
			e, m := q.e, &rec.Mut
			var err error
			switch {
			case e.task != nil:
				add.Task, m = e.task, &add
			case e.full != nil:
				m = &e.full.Mut
			default:
				err = decodeRecord(e.payload, &rec, names)
			}
			if err == nil {
				err = p.Replay(m)
			}
			if err != nil {
				return fmt.Errorf("durable: replaying %s, record seq %d: %w", filepath.Base(q.file.path), e.seq, err)
			}
			if e.task != nil {
				p.Grow(e.task.ID, need[e.task.ID])
			}
		}
		return nil
	})
}

// openSegments opens the configured layout's WAL files for appending and
// retires files left over from a larger previous layout: their records are
// in the pool now, so a snapshot covers them and the files can go —
// otherwise nothing would ever truncate them.
func (s *Store) openSegments(files []*walFile) error {
	for i, seg := range s.segs {
		w, err := openWALShared(filepath.Join(s.dir, segWALName(i)), s.ins)
		if err != nil {
			return err
		}
		seg.w = w
	}
	stale := files[sort.Search(len(files), func(i int) bool { return files[i].idx >= len(s.segs) }):]
	if len(stale) == 0 {
		return nil
	}
	var err error
	s.consistentCut(func(pools []*core.Pool) { err = s.snapshotLocked(pools) })
	if err != nil {
		return err
	}
	for _, f := range stale {
		if err := os.Remove(f.path); err != nil {
			return fmt.Errorf("durable: removing stale WAL segment: %w", err)
		}
	}
	return nil
}

// ReadLog decodes every WAL segment file in dir and returns each file's
// records in file order, keyed by file name. It only reads: a torn or
// undecodable tail, which Open would cut, is reported as an error, and the
// records before it are still returned.
func ReadLog(dir string) (map[string][]Record, error) {
	files, err := findWALs(dir)
	if err != nil {
		return nil, err
	}
	out := make(map[string][]Record, len(files))
	var errs []error
	for _, f := range files {
		var records []Record
		f.walk(func(rec *Record, _ []byte) { records = append(records, *detach(rec)) })
		if f.err != nil {
			return nil, f.err
		}
		name := filepath.Base(f.path)
		out[name] = records
		if f.torn > 0 {
			errs = append(errs, fmt.Errorf("durable: %s: %d bytes from offset %d on do not decode", name, f.torn, f.validBytes))
		}
	}
	return out, errors.Join(errs...)
}
