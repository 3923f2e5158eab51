package durable

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
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
	// recovery pipeline's phases, which run one after another: reading
	// pool.snap and restoring it into the pool shards; reading, checking
	// and decoding every WAL file (and truncating torn tails); merging the
	// files by sequence number while folding the
	// cross-task state and routing pool mutations to their segments; and,
	// per segment, counting its queued answers per task, sizing each task
	// once for them, and applying its mutations to its pool shard. What is
	// left over (directory scan, opening the segment files, a forced
	// reshard snapshot) is not attributed.
	SnapshotLoad time.Duration
	Decode       time.Duration
	Merge        time.Duration
	Apply        time.Duration
	// Segments is the number of WAL segments the store operates with.
	Segments int
	// Tasks, Answers, and BudgetSpent describe the recovered state.
	Tasks       int
	Answers     int
	BudgetSpent float64
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

// Open recovers state from dir (creating it if needed) and returns a store
// ready to journal new mutations, plus a report of what was recovered.
// A torn or corrupt WAL tail is truncated, not an error: the discarded
// suffix was never acknowledged.
//
// Recovery restores the snapshot straight into the pool's shards, one per
// configured segment, each on its own goroutine decoding its own section of
// pool.snap (or, when the snapshot was cut with another shard count, taking
// its tasks from every section), then replays every WAL segment file found
// in the directory — including
// files from a previous layout with a different segment count, whose
// records are re-routed to their current owners — as a three-step pipeline:
// the files are decoded in parallel, merged by sequence number on one
// goroutine (which folds the cross-task state and queues each pool
// mutation for the segment owning its task), and the queues are applied
// one goroutine per segment. The shards recovery filled are the pool the
// store then serves and journals (Store.Pool); nothing is copied. Leftover
// files from a larger previous layout are folded into a fresh snapshot and
// deleted, so the directory converges to the configured layout. A
// directory in a format this build does not read fails with errJSONEra
// before anything in it is written.
func Open(dir string, opts Options) (*Store, *RecoveryInfo, error) {
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
	if found {
		if err := s.restoreSnapshot(snap, pools); err != nil {
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
	if info.TornBytes, err = decodeWALs(files); err != nil {
		return nil, nil, err
	}
	info.Decode = time.Since(phase)

	phase = time.Now()
	queues, err := s.mergeRoute(files, info)
	if err != nil {
		return nil, nil, err
	}
	info.Merge = time.Since(phase)

	phase = time.Now()
	if err := applyQueues(pools, queues); err != nil {
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
// decoded, the records it holds.
type walFile struct {
	idx  int // segment index the file name encodes
	path string

	records    []Record // decoded, in file order (ascending Seq)
	validBytes int64    // where the readable, decodable prefix ends
	torn       int64    // bytes past validBytes: torn, corrupt or undecodable
	err        error
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

// decode reads the file, verifies every frame, and decodes the payloads
// into f.records. Worker names are interned per file. A JSON record sets
// f.err to errJSONEra, so the file is refused, not cut.
func (f *walFile) decode() {
	payloads, validBytes, torn, err := readWAL(f.path)
	if err != nil {
		f.err = err
		return
	}
	records := make([]Record, len(payloads))
	names := make(map[string]string)
	off := int64(0)
	for i, payload := range payloads {
		if legacyJSON(payload) {
			f.err = fmt.Errorf("%w (%s)", errJSONEra, filepath.Base(f.path))
			return
		}
		if err := decodeRecord(payload, &records[i], names); err != nil {
			// The frame checksum verified but the payload does not decode:
			// treat it like a torn tail and cut this file here. Everything
			// after an undecodable record in the same file is unreachable
			// anyway — replay could not order it.
			torn += validBytes - off
			validBytes = off
			records = records[:i]
			break
		}
		off += frameHeader + int64(len(payload))
	}
	f.records, f.validBytes, f.torn = records, validBytes, torn
}

// decodeWALs decodes every file on its own goroutine — the files share
// nothing until the merge — and then, with all of them joined, truncates
// each torn or undecodable tail so the log ends on a record boundary again.
// It returns the total bytes cut.
func decodeWALs(files []*walFile) (tornBytes int64, err error) {
	var wg sync.WaitGroup
	for _, f := range files {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f.decode()
		}()
	}
	wg.Wait()
	for _, f := range files {
		if f.err != nil {
			return 0, f.err
		}
	}
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
// globally and ascending within each file, so a k-way merge of the decoded
// files visits every record in a valid interleaving of the original
// mutation order. Records the snapshot already covers are skipped; for the
// rest the cross-task part is folded here, in that order — the spend is a
// float sum and the CrowdQL ledger depends on publish/refund/close order,
// so neither can be split across goroutines — and the pool mutation is
// queued for the segment that owns its tasks under the current layout
// (route). All of a task's mutations land in one queue in sequence order,
// which is all the per-segment appliers need.
//
// A directory with one WAL file holds every sequence number from the
// first record on, so a record that does not follow its predecessor, or a
// first record past the snapshot's LastSeq + 1, fails recovery. With
// several files a gap is a legal crash outcome: sequence numbers are drawn
// under the store mutex and written under each segment's own, so a crash
// or a failed write can lose n in one file while n+1 reached another.
func (s *Store) mergeRoute(files []*walFile, info *RecoveryInfo) ([][]queued, error) {
	queues := make([][]queued, len(s.segs))
	heads := make([]int, len(files))
	prev := uint64(0) // the single file's previous record
	for {
		var rec *Record
		from := -1
		for i, f := range files {
			if heads[i] < len(f.records) && (rec == nil || f.records[heads[i]].Seq < rec.Seq) {
				rec, from = &f.records[heads[i]], i
			}
		}
		if rec == nil {
			return queues, nil
		}
		heads[from]++
		if len(files) == 1 {
			if prev != 0 && rec.Seq != prev+1 || prev == 0 && rec.Seq > s.snapSeq+1 {
				return nil, fmt.Errorf("durable: %s: record seq %d follows seq %d; the sequence numbers of a single WAL file have no gaps",
					filepath.Base(files[0].path), rec.Seq, max(prev, s.snapSeq))
			}
			prev = rec.Seq
		}
		if rec.Seq <= s.snapSeq {
			info.Skipped++
			continue
		}
		info.Replayed++
		if rec.Seq > s.seq {
			s.seq = rec.Seq
		}
		s.foldCross(rec)
		if rec.Mut.Kind != 0 {
			s.route(queues, rec, files[from])
		}
	}
}

// route queues rec's pool mutation for the segment owning its tasks. A
// mutation whose tasks all have one owner — every mutation the current
// layout journaled — is queued as decoded. A batch or lease sweep an
// older layout journaled across several current owners is split: each
// owner gets a record of its own tasks' part.
func (s *Store) route(queues [][]queued, rec *Record, file *walFile) {
	owner, split := -1, false
	rec.Mut.Tasks(func(id core.TaskID) {
		if si := s.segFor(id); owner < 0 {
			owner = si
		} else if si != owner {
			split = true
		}
	})
	switch {
	case owner < 0: // a batch of no answers
	case !split:
		queues[owner] = append(queues[owner], queued{rec, file})
	default:
		parts := make([]*Record, len(queues))
		part := func(id core.TaskID) *core.Mutation {
			si := s.segFor(id)
			if parts[si] == nil {
				parts[si] = &Record{Seq: rec.Seq, Mut: core.Mutation{Kind: rec.Mut.Kind, Batch: rec.Mut.Batch}}
				queues[si] = append(queues[si], queued{parts[si], file})
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
}

// queued is one record in a segment's apply queue, with the WAL file it
// was read from, for the error that reports it if the pool refuses it.
type queued struct {
	rec  *Record
	file *walFile
}

// applyQueues replays each segment's queued mutations into its pool shard
// (core.Pool.Replay), one goroutine per segment: the shards are disjoint
// and each queue holds its tasks' mutations in sequence order. Each
// applier counts its queue's answers per task and grows each task once by
// its count (core.Pool.Grow): a task restored from the snapshot before
// the first mutation, a task the queue adds right after its add, so no
// answer slice or voter index is reallocated while the answers land. An
// entry is cleared as soon as it is replayed, so a collection that runs
// mid-apply already reclaims the decoded records behind it; holding them
// all until Open returns left the process a quarter larger at boot (83 vs
// 66 MB resident on the recovery_boot directory). The first mutation a
// shard refuses fails recovery, naming its WAL file and sequence number.
func applyQueues(pools []*core.Pool, queues [][]queued) error {
	return inParallel(len(queues), func(si int) error {
		p, queue := pools[si], queues[si]
		need := make(map[core.TaskID]int)
		for _, q := range queue {
			for _, a := range q.rec.Mut.Answers {
				need[a.Task]++
			}
		}
		for id, n := range need {
			p.Grow(id, n) // a task the queue adds is not in p yet: no-op
		}
		for _, q := range queue {
			m := &q.rec.Mut
			if err := p.Replay(m); err != nil {
				return fmt.Errorf("durable: replaying %s, record seq %d: %w", filepath.Base(q.file.path), q.rec.Seq, err)
			}
			if m.Kind == core.MutAddTask {
				p.Grow(m.Task.ID, need[m.Task.ID])
			}
			*q.rec = Record{}
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
		f.decode()
		if f.err != nil {
			return nil, f.err
		}
		name := filepath.Base(f.path)
		out[name] = f.records
		if f.torn > 0 {
			errs = append(errs, fmt.Errorf("durable: %s: %d bytes from offset %d on do not decode", name, f.torn, f.validBytes))
		}
	}
	return out, errors.Join(errs...)
}
