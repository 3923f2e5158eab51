package durable

import (
	"cmp"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"repro/internal/core"
)

// snapName is the snapshot file inside the data directory. There is only
// ever one: writeSnapshot replaces it atomically (temp file + fsync +
// rename + directory fsync), so at every instant the directory holds
// either the previous complete snapshot or the new complete snapshot,
// never a partial one.
const snapName = "pool.snap"

// Snapshot format 3 is binary, so that recovery can decode it on every
// core:
//
//	"CKSNAP" | uint16 LE format (3)
//	frame: the cross-task section, JSON (snapCross)
//	frame: pool shard 0's section
//	...
//	frame: pool shard Shards−1's section, then end of file
//
// Every frame is the WAL's [u32 length][u32 CRC32][payload], so every
// section is checksummed on its own. A shard section is a worker-ID table
// followed by the shard's task records:
//
//	uvarint workers, then each worker as uvarint length + bytes
//	uvarint tasks, then each task as varint ID, u32 LE record length, record
//
// and a record is the task's fields, its answers in arrival order (the
// worker as an index into the table) and its leases, built from the same
// fields as WAL records (codec.go):
//
//	varint kind | string question | uvarint options, strings | byte flags |
//	[f64 difficulty] | varint ground truth | [string truth text] | [f64 truth score] |
//	uvarint answers, each: uvarint worker | varint option | byte flags |
//	                       [string text] [f64 score] [f64 submitted] [f64 latency] |
//	uvarint leases, each:  uvarint worker | varint deadline (Unix ns)
//
// Floats travel as their raw IEEE bits, present only when a flag bit says
// so (a zero value is left out). Tasks are in insertion order from a
// single shard and in ascending ID order within each of several.
//
// Format 2 is format 3 with the money of its cross-task section in floats
// (spent_bits, and float reservations); builds up to 41542c1 wrote it, and
// Open reads it through the retention reader (retention.go). A file that
// starts with '{' is a format-1 snapshot, which builds before format 2
// wrote. Open refuses it with errJSONEra.
const (
	snapMagic  = "CKSNAP"
	snapFormat = 3
	snapHeader = len(snapMagic) + 2
)

// snapCross is the cross-task section of a format-3 snapshot: the log
// position the image covers, the budget spend in units, the number of
// shard sections that follow, and the golden-screen tallies and CrowdQL
// ledger, which are small enough to stay JSON.
type snapCross struct {
	LastSeq uint64                      `json:"last_seq"`
	Spent   int64                       `json:"spent"`
	Shards  int                         `json:"shards"`
	Screen  map[string]core.ScreenTally `json:"screen,omitempty"`
	CQL     *cqlImage                   `json:"cql,omitempty"`
}

// snapImage is an encoded format-3 snapshot: the file header with the
// cross-task frame, then one frame per pool shard, to be written in order.
type snapImage struct {
	LastSeq uint64
	parts   [][]byte
}

// encodeSnapshot encodes the store's state as of s.seq straight from the
// pool shards, one goroutine per shard. The caller is inside
// consistentCut, so nothing mutates the pools or the cross-task state
// while the goroutines read them.
func (s *Store) encodeSnapshot(pools []*core.Pool) (*snapImage, error) {
	cross, err := json.Marshal(&snapCross{
		LastSeq: s.seq,
		Spent:   s.repSpent,
		Shards:  len(pools),
		Screen:  s.repScreen,
		CQL:     s.repCQL.image(),
	})
	if err != nil {
		return nil, fmt.Errorf("durable: encoding snapshot: %w", err)
	}
	head := binary.LittleEndian.AppendUint16([]byte(snapMagic), snapFormat)
	img := &snapImage{LastSeq: s.seq, parts: make([][]byte, 1+len(pools))}
	img.parts[0] = appendFrame(head, cross)
	err = inParallel(len(pools), func(i int) (err error) {
		img.parts[1+i], err = encodeShard(pools[i], len(pools) > 1)
		return err
	})
	if err != nil {
		return nil, err
	}
	return img, nil
}

// encodeShard encodes one pool shard as a framed section; see the
// layout above. ascending lists the tasks by ID instead of insertion order.
func encodeShard(p *core.Pool, ascending bool) ([]byte, error) {
	ids := p.TaskIDs()
	if ascending {
		ids = slices.Clone(ids)
		slices.Sort(ids)
	}
	leases := make(map[core.TaskID][]core.Lease)
	for _, l := range p.Leases() {
		leases[l.Task] = append(leases[l.Task], l)
	}
	var names []string
	index := make(map[string]uint64)
	worker := func(b []byte, w string) []byte {
		i, ok := index[w]
		if !ok {
			i = uint64(len(names))
			index[w] = i
			names = append(names, w)
		}
		return binary.AppendUvarint(b, i)
	}

	body := make([]byte, 0, 64*len(ids)+4*p.TotalAnswers())
	body = binary.AppendUvarint(body, uint64(len(ids)))
	for _, id := range ids {
		t := p.Task(id)
		body = binary.AppendVarint(body, int64(id))
		at := len(body)
		body = append(body, 0, 0, 0, 0)

		var closed byte
		if p.Closed(id) {
			closed = taskClosed
		}
		body = appendTask(body, t, closed)
		answers := p.Answers(id)
		body = binary.AppendUvarint(body, uint64(len(answers)))
		for i := range answers {
			a := &answers[i]
			body = appendAnswer(worker(body, a.Worker), a, 0)
		}
		ls := leases[id]
		body = binary.AppendUvarint(body, uint64(len(ls)))
		for _, l := range ls {
			body = worker(body, l.Worker)
			body = binary.AppendVarint(body, l.Deadline.UnixNano())
		}
		binary.LittleEndian.PutUint32(body[at:], uint32(len(body)-at-4))
	}

	table := binary.AppendUvarint(nil, uint64(len(names)))
	for _, w := range names {
		table = appendString(table, w)
	}
	if n := len(table) + len(body); n > math.MaxUint32 {
		return nil, fmt.Errorf("durable: encoding snapshot: a shard section of %d bytes does not fit its frame", n)
	}
	return appendFrame(nil, table, body), nil
}

// snapSection is one pool shard's section of a snapshot: its
// worker table and its task records, each still undecoded.
type snapSection struct {
	shard   int
	workers []string
	tasks   []snapRecord
}

// snapRecord is one task record of a section.
type snapRecord struct {
	id  core.TaskID
	sec *snapSection
	rec []byte
}

// parseSection reads the worker table and splits off the task records of
// the section that shard `shard` of `of` wrote, checking that the shard
// owns every task in it.
func parseSection(shard, of int, payload []byte) (*snapSection, error) {
	r := reader{b: payload}
	sec := &snapSection{shard: shard, workers: make([]string, r.count(1))}
	for i := range sec.workers {
		sec.workers[i] = r.str()
	}
	sec.tasks = make([]snapRecord, r.count(5)) // a varint ID and a u32 length at least
	for i := range sec.tasks {
		id := core.TaskID(r.varint())
		sec.tasks[i] = snapRecord{id: id, sec: sec, rec: r.next(r.u32())}
		if r.err == nil && core.ShardIndex(id, of) != shard {
			r.fail()
		}
	}
	if len(r.b) != 0 {
		r.fail() // bytes after the last record
	}
	if r.err != nil {
		return nil, fmt.Errorf("durable: snapshot corrupt: shard %d section: %w", shard, r.err)
	}
	return sec, nil
}

// snapTask is a task record whose task fields are decoded: the task, its
// flags, its answer count, and the rest of the record — its answers and
// leases — still undecoded.
type snapTask struct {
	sec     *snapSection
	task    *core.Task
	flags   byte
	answers int
	rest    []byte
}

// malformed is the error of a task record that does not parse.
func (sec *snapSection) malformed(id core.TaskID, err error) error {
	return fmt.Errorf("durable: snapshot corrupt: shard %d section, task %d: %w", sec.shard, id, err)
}

// readTask decodes a task record's fields up to its answer count. The
// task's option strings are interned in names, as a WAL file's are.
func (sec *snapSection) readTask(id core.TaskID, rec []byte, names map[string]string) (snapTask, error) {
	r := reader{b: rec, names: names}
	t := &core.Task{ID: id}
	flags := r.task(t)
	if flags&^snapTaskFlags != 0 {
		r.fail()
	}
	n := r.count(3)
	if r.err != nil {
		return snapTask{}, sec.malformed(id, r.err)
	}
	return snapTask{sec: sec, task: t, flags: flags, answers: n, rest: r.b}, nil
}

// restore replays the task into p through the pool's validating calls:
// Add, Record for each answer in arrival order, Lease for each lease, and
// Close last — answers and leases of a closed task were taken while it
// was open. The task is grown before its first answer for its own
// answers and the more answers the WAL holds for it behind the snapshot,
// so its arrays are carved once.
func (st *snapTask) restore(p *core.Pool, more int) error {
	id, sec := st.task.ID, st.sec
	if err := p.Replay(&core.Mutation{Kind: core.MutAddTask, Task: st.task}); err != nil {
		return fmt.Errorf("durable: snapshot task %d: %w", id, err)
	}
	r := reader{b: st.rest}
	worker := func() string {
		i := r.uvarint()
		if i >= uint64(len(sec.workers)) {
			r.fail()
			return ""
		}
		return sec.workers[i]
	}
	p.Grow(id, st.answers+more)
	for n := st.answers; n > 0 && r.err == nil; n-- {
		a := core.Answer{Task: id, Worker: worker()}
		if r.answer(&a)&^snapAnswerFlags != 0 {
			r.fail()
		}
		if r.err != nil {
			break
		}
		if err := p.Record(a); err != nil {
			return fmt.Errorf("durable: snapshot answer: %w", err)
		}
	}
	for n := r.count(2); n > 0 && r.err == nil; n-- {
		w, deadline := worker(), r.varint()
		if r.err != nil {
			break
		}
		if err := p.Lease(id, w, time.Unix(0, deadline)); err != nil {
			return fmt.Errorf("durable: snapshot lease: %w", err)
		}
	}
	if len(r.b) != 0 {
		r.fail() // bytes after the record's last field
	}
	if r.err != nil {
		return sec.malformed(id, r.err)
	}
	if st.flags&taskClosed != 0 {
		p.Close(id)
	}
	return nil
}

// snapRestore restores shard si of a loaded snapshot into p, sized for
// what the WAL holds behind the snapshot for that shard (wal). Open runs
// it once per shard, concurrently.
type snapRestore func(p *core.Pool, si int, wal *shardCounts) error

// loadSnapshot loads a snapshot file's cross-task state into a fresh
// store and returns the function that restores its pool state straight
// into the pool shards of a store of n. A snapshot is all-or-nothing: any
// corrupt, truncated or unknown-format input is an error, and the store
// that got a partial restore is dropped. A format-1 file, recognised by
// its leading '{', is errJSONEra.
func (s *Store) loadSnapshot(data []byte, n int) (snapRestore, error) {
	if legacyJSON(data) {
		return nil, fmt.Errorf("%w (%s)", errJSONEra, snapName)
	}
	cross, restore, err := decodeSnapshot(data, n)
	if err != nil {
		return nil, err
	}
	s.seq, s.snapSeq = cross.LastSeq, cross.LastSeq
	s.repSpent = cross.Spent
	for w, t := range cross.Screen {
		s.repScreen[w] = t
	}
	s.repCQL = restoreCQL(cross.CQL)
	return restore, nil
}

// decodeSnapshot checks a format-3 or format-2 file's header and every
// section's checksum, decodes the cross-task section (a format-2 one
// through the retention reader), and splits each shard section
// into its worker table and task records, for a store of n shards. It
// returns the cross-task section and the function that restores a shard.
//
// A snapshot written with n shards hands each shard its own section.
// Otherwise every shard walks all records — in file order from a single
// section, by ascending ID from several — and restores the ones it owns.
// A shard decodes its tasks' fields first, then sizes its pool once for
// them and all their answers, the snapshot's and the WAL's
// (core.Pool.Reserve), and then restores the tasks one by one.
func decodeSnapshot(data []byte, n int) (*snapCross, snapRestore, error) {
	if len(data) < snapHeader || string(data[:len(snapMagic)]) != snapMagic {
		return nil, nil, errors.New("durable: snapshot corrupt: not a pool snapshot")
	}
	format := binary.LittleEndian.Uint16(data[len(snapMagic):])
	if format != snapFormat && format != 2 {
		if format > snapFormat {
			return nil, nil, fmt.Errorf("durable: snapshot format %d is newer than this binary supports (%d)", format, snapFormat)
		}
		return nil, nil, fmt.Errorf("durable: snapshot corrupt: unknown format %d", format)
	}
	payload, rest, ok := splitFrame(data[snapHeader:], math.MaxUint32)
	if !ok {
		return nil, nil, errors.New("durable: snapshot corrupt: cross-task section fails its checksum")
	}
	cross := &snapCross{}
	var err error
	if format == 2 {
		cross, err = decodeCross2(payload)
	} else if err = json.Unmarshal(payload, cross); err != nil {
		err = fmt.Errorf("durable: snapshot corrupt: cross-task section: %w", err)
	}
	if err != nil {
		return nil, nil, err
	}
	if cross.Shards < 1 || cross.Shards > len(rest)/frameHeader {
		return nil, nil, fmt.Errorf("durable: snapshot corrupt: %d shard sections in %d bytes", cross.Shards, len(rest))
	}
	secs := make([]*snapSection, cross.Shards)
	for i := range secs {
		if payload, rest, ok = splitFrame(rest, math.MaxUint32); !ok {
			return nil, nil, fmt.Errorf("durable: snapshot corrupt: shard %d section is truncated or fails its checksum", i)
		}
		var err error
		if secs[i], err = parseSection(i, len(secs), payload); err != nil {
			return nil, nil, err
		}
	}
	if len(rest) != 0 {
		return nil, nil, fmt.Errorf("durable: snapshot corrupt: %d bytes after the last section", len(rest))
	}

	var all []snapRecord
	if len(secs) != n {
		for _, sec := range secs {
			all = append(all, sec.tasks...)
		}
		if len(secs) > 1 {
			slices.SortStableFunc(all, func(a, b snapRecord) int { return cmp.Compare(a.id, b.id) })
		}
	}
	return cross, func(p *core.Pool, si int, wal *shardCounts) error {
		recs, owned := all, len(all)/n+1 // a fair share of the tasks
		if len(secs) == n {
			recs = secs[si].tasks
			owned = len(recs)
		}
		names := make(map[string]string)
		tasks := make([]snapTask, 0, owned)
		answers := 0
		for _, r := range recs {
			if core.ShardIndex(r.id, n) != si {
				continue
			}
			st, err := r.sec.readTask(r.id, r.rec, names)
			if err != nil {
				return err
			}
			tasks = append(tasks, st)
			answers += st.answers
		}
		p.Reserve(len(tasks)+wal.adds, answers+wal.answers)
		for i := range tasks {
			if err := tasks[i].restore(p, wal.need[tasks[i].task.ID]); err != nil {
				return err
			}
		}
		return nil
	}, nil
}

// inParallel runs fn(0), …, fn(n−1) on a goroutine each and returns the
// error of the lowest i that failed.
func inParallel(n int, fn func(i int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = fn(i)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// restoreCQL rebuilds the CrowdQL replica from a snapshot image (an empty
// replica when the snapshot holds none).
func restoreCQL(img *cqlImage) cqlReplica {
	var r cqlReplica
	if img == nil {
		return r
	}
	for _, sess := range img.Sessions {
		st := r.session(sess.Name)
		maps.Copy(st.Prepared, sess.Prepared)
		maps.Copy(st.Running, sess.Running)
	}
	for _, q := range img.Questions {
		if r.questions == nil {
			r.questions = make(map[core.TaskID]*CQLQuestionState)
		}
		r.questions[q.Task] = &q
	}
	return r
}

// syncDir fsyncs a directory, making a rename inside it survive a power
// loss. Tests replace it to inject a failure.
var syncDir = func(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// writeSnapshot atomically replaces dir/pool.snap. It returns an error
// unless the new file and its directory entry are both on stable storage:
// the caller truncates the WAL on success, and a rename lost to a power
// loss behind a truncation that survived it would lose acked answers.
func writeSnapshot(dir string, img *snapImage) error {
	tmp, err := os.CreateTemp(dir, snapName+".tmp-*")
	if err != nil {
		return fmt.Errorf("durable: snapshot temp file: %w", err)
	}
	tmpName := tmp.Name()
	cleanup := func(err error) error {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	for _, part := range img.parts {
		if _, err := tmp.Write(part); err != nil {
			return cleanup(fmt.Errorf("durable: writing snapshot: %w", err))
		}
	}
	if err := tmp.Sync(); err != nil {
		return cleanup(fmt.Errorf("durable: syncing snapshot: %w", err))
	}
	if err := tmp.Close(); err != nil {
		return cleanup(fmt.Errorf("durable: closing snapshot: %w", err))
	}
	if err := os.Rename(tmpName, filepath.Join(dir, snapName)); err != nil {
		return cleanup(fmt.Errorf("durable: publishing snapshot: %w", err))
	}
	if err := syncDir(dir); err != nil {
		return fmt.Errorf("durable: syncing data dir after publishing snapshot: %w", err)
	}
	return nil
}

// readSnapshot returns the contents of dir/pool.snap; found is false when
// no snapshot has been published yet.
func readSnapshot(dir string) (data []byte, found bool, err error) {
	data, err = os.ReadFile(filepath.Join(dir, snapName))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, false, nil
		}
		return nil, false, fmt.Errorf("durable: reading snapshot: %w", err)
	}
	return data, true, nil
}
