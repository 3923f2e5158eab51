package durable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

	"repro/internal/core"
)

// recoveryImage is everything recovery must reproduce, in a form that does
// not depend on the segment layout: a 1-segment store presents tasks in
// insertion order and a multi-segment one in ascending IDs, so tasks are
// keyed by ID; per-task answer order is kept. The spend is in units.
type recoveryImage struct {
	Tasks     map[core.TaskID]core.Task
	Answers   map[core.TaskID][]core.Answer
	Closed    map[core.TaskID]bool
	Leases    []leaseImage
	Screen    map[string]core.ScreenTally
	Spent     int64
	Sessions  []CQLSessionState
	Questions []CQLQuestionState
}

// leaseImage is a lease with its deadline in Unix nanoseconds, which
// unlike a time.Time prints the same in every time zone.
type leaseImage struct {
	Task     core.TaskID
	Worker   string
	Deadline int64
}

func imageOf(s *Store) recoveryImage {
	pool, spent, screen := state(s)
	img := recoveryImage{
		Tasks:   map[core.TaskID]core.Task{},
		Answers: map[core.TaskID][]core.Answer{},
		Closed:  map[core.TaskID]bool{},
		Screen:  screen,
		Spent:   spent,
	}
	for _, id := range pool.TaskIDs() {
		img.Tasks[id] = *pool.Task(id)
		if as := pool.Answers(id); len(as) > 0 {
			img.Answers[id] = as
		}
		if pool.Closed(id) {
			img.Closed[id] = true
		}
	}
	for _, l := range pool.Leases() {
		img.Leases = append(img.Leases, leaseImage{l.Task, l.Worker, l.Deadline.UnixNano()})
	}
	img.Sessions, img.Questions = s.CQLState()
	return img
}

// driveRandom applies steps seeded-random mutations to s's live pool and
// ledger from one goroutine (so call order is sequence order): task adds,
// single answers and batches with golden verdicts, closes, lease issues
// and sweeps, and the CrowdQL session / statement / query / question
// lifecycle, with reservations refunded past what they reserved. It keeps just enough
// of a model to submit only what the pool accepts. halfway runs once,
// after half the steps.
func driveRandom(t *testing.T, s *Store, seed int64, steps int, halfway func()) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var (
		nextID    core.TaskID = 1
		open      []core.TaskID
		golden    = map[core.TaskID]bool{}
		answered  = map[core.TaskID]map[string]bool{}
		sessions  []string
		running   = map[string][]string{}
		questions []core.TaskID
		nSession  int
		nQuery    int
	)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	addTask := func() core.TaskID {
		id := nextID
		nextID++
		golden[id] = rng.Intn(4) == 0
		mustAdd(t, s, choiceTask(id, golden[id], int(id)%3))
		open = append(open, id)
		answered[id] = map[string]bool{}
		return id
	}
	// freshAnswer picks a worker that has not answered the task yet.
	freshAnswer := func(id core.TaskID) (core.Answer, *bool, bool) {
		for try := 0; try < 4; try++ {
			w := fmt.Sprintf("w%d", rng.Intn(12))
			if answered[id][w] {
				continue
			}
			answered[id][w] = true
			a := core.Answer{Task: id, Worker: w, Option: rng.Intn(3), Submitted: float64(rng.Intn(100))}
			var g *bool
			if golden[id] {
				correct := a.Option == int(id)%3
				g = &correct
			}
			return a, g, true
		}
		return core.Answer{}, nil, false
	}
	for step := 0; step < steps; step++ {
		if step == steps/2 && halfway != nil {
			halfway()
		}
		if len(open) < 4 {
			addTask()
			continue
		}
		pick := open[rng.Intn(len(open))]
		switch op := rng.Intn(20); {
		case op < 2:
			addTask()
		case op < 7:
			if a, g, ok := freshAnswer(pick); ok {
				must(answer(s, a, g))
			}
		case op < 11:
			var as []core.Answer
			var gs []*bool
			anyGolden := false
			for i, n := 0, 2+rng.Intn(5); i < n; i++ {
				if a, g, ok := freshAnswer(open[rng.Intn(len(open))]); ok {
					as, gs = append(as, a), append(gs, g)
					anyGolden = anyGolden || g != nil
				}
			}
			if !anyGolden {
				gs = nil
			}
			must(answerBatch(s, as, gs))
		case op < 12:
			if rng.Intn(2) == 0 {
				// The answer that completes the question, then its close.
				if a, g, ok := freshAnswer(pick); ok {
					must(answer(s, a, g))
				}
			}
			mustClose(t, s, pick)
			for i, id := range open {
				if id == pick {
					open = append(open[:i], open[i+1:]...)
					break
				}
			}
		case op < 14:
			// Deadlines grow with the step, so a sweep reclaims the oldest.
			mustLease(t, s, pick, fmt.Sprintf("lw%d", rng.Intn(6)), time.Unix(int64(1000+step), 0))
		case op < 15:
			_, err := s.Pool().ExpireLeases(time.Unix(int64(1000+step-rng.Intn(60)), 0))
			must(err)
		case op < 18:
			switch {
			case len(sessions) == 0 || rng.Intn(4) == 0:
				nSession++
				name := fmt.Sprintf("Sess%d", nSession)
				must(s.CQLSessionCreated(name))
				sessions = append(sessions, name)
			case rng.Intn(8) == 0:
				i := rng.Intn(len(sessions))
				must(s.CQLSessionClosed(sessions[i]))
				delete(running, sessions[i])
				sessions = append(sessions[:i], sessions[i+1:]...)
			default:
				sess := sessions[rng.Intn(len(sessions))]
				switch qs := running[sess]; {
				case rng.Intn(3) == 0:
					must(s.CQLPrepared(sess, fmt.Sprintf("p%d", rng.Intn(3)), fmt.Sprintf("SELECT %d", step)))
				case len(qs) > 0 && rng.Intn(2) == 0:
					must(s.CQLQueryFinished(sess, qs[0], "done"))
					running[sess] = qs[1:]
				default:
					nQuery++
					qid := fmt.Sprintf("q%d", nQuery)
					must(s.CQLQueryStarted(sess, qid, fmt.Sprintf("CROWDFILL %d", step)))
					running[sess] = append(qs, qid)
				}
			}
		default:
			switch {
			case len(questions) == 0 || rng.Intn(3) == 0:
				id := addTask()
				must(s.CQLQuestionPublished(id, 3))
				questions = append(questions, id)
			case rng.Intn(2) == 0:
				must(s.CQLQuestionRefunded(questions[rng.Intn(len(questions))], 1))
			default:
				i := rng.Intn(len(questions))
				must(s.CQLQuestionClosed(questions[i], int64(rng.Intn(3))))
				questions = append(questions[:i], questions[i+1:]...)
			}
		}
	}
}

func copyDir(t *testing.T, from, to string) {
	t.Helper()
	entries, err := os.ReadDir(from)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(from, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(to, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRecoveryEquivalence is the recovery pipeline's contract: whatever
// layout wrote the directory, whatever layout reopens it and however many
// cores the decode and apply goroutines get, the recovered store equals the
// store that crashed — same tasks, per-task answer order, closes, leases,
// tallies, CrowdQL ledger, and the same spend to the unit. The overlap
// variant publishes a snapshot halfway without truncating the WAL, so the
// first half of the log must be skipped, not applied twice.
func TestRecoveryEquivalence(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	const steps = 600
	for _, overlap := range []bool{false, true} {
		for _, written := range []int{1, 2, 4} {
			master := t.TempDir()
			s, _ := mustOpen(t, master, Options{Fsync: FsyncNever, Segments: written})
			var snapSeq uint64
			var halfway func()
			if overlap {
				halfway = func() {
					snap, err := s.currentSnapshot()
					if err == nil {
						snapSeq = snap.LastSeq
						err = writeSnapshot(master, snap)
					}
					if err != nil {
						t.Fatal(err)
					}
				}
			}
			driveRandom(t, s, int64(42+written), steps, halfway)
			want := imageOf(s)
			if len(want.Leases) == 0 || len(want.Closed) == 0 || len(want.Questions) == 0 {
				t.Fatalf("the random history left %d leases, %d closed tasks, %d open questions; recovery needs some of each",
					len(want.Leases), len(want.Closed), len(want.Questions))
			}
			lastSeq := s.seq
			s.Crash()
			if overlap && snapSeq == 0 {
				t.Fatal("the halfway snapshot covered nothing")
			}

			for _, reopened := range []int{1, 2, 3, 8} {
				for _, procs := range []int{1, 2, 8} {
					label := fmt.Sprintf("overlap=%v written=%d reopened=%d procs=%d", overlap, written, reopened, procs)
					dir := t.TempDir()
					copyDir(t, master, dir)
					runtime.GOMAXPROCS(procs)
					r, info := mustOpen(t, dir, Options{Fsync: FsyncNever, Segments: reopened})
					got := imageOf(r)
					r.Crash()
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: recovered state diverges\n got %+v\nwant %+v", label, got, want)
					}
					answers := 0
					for _, as := range want.Answers {
						answers += len(as)
					}
					if info.SnapshotLoaded != overlap || info.Skipped != int(snapSeq) ||
						info.Replayed != int(lastSeq-snapSeq) || info.TornBytes != 0 ||
						info.Tasks != len(want.Tasks) || info.Answers != answers ||
						info.BudgetSpent != want.Spent {
						t.Fatalf("%s: recovery report %+v, want %d skipped, %d replayed, %d tasks, %d answers",
							label, info, snapSeq, lastSeq-snapSeq, len(want.Tasks), answers)
					}
				}
			}
		}
	}
}

// TestUndecodableRecordCutsOnlyItsFile plants a frame whose checksum
// verifies but whose payload, under a tag this build knows, does not
// decode in the middle of segment 1 of 3: that file is cut exactly there,
// the other two replay whole, and the next Open finds nothing left to cut.
// (A tag this build does not know refuses the directory instead:
// TestUnknownRecordDirectoryRefused.)
func TestUndecodableRecordCutsOnlyItsFile(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Fsync: FsyncNever, Segments: 3}
	s, _ := mustOpen(t, dir, opts)
	for i := 1; i <= 30; i++ {
		mustAdd(t, s, choiceTask(core.TaskID(i), false, 0))
	}
	for i := 1; i <= 30; i++ {
		if err := answer(s, core.Answer{Task: core.TaskID(i), Worker: "w", Option: 0}, nil); err != nil {
			t.Fatal(err)
		}
	}
	s.Crash()

	var frames [3]int
	var sizes [3]int64
	for i := range frames {
		payloads, valid, torn, err := readWAL(filepath.Join(dir, segWALName(i)))
		if err != nil || torn != 0 || len(payloads) < 4 {
			t.Fatalf("segment %d: %d frames, torn %d, err %v; the script should spread over all three", i, len(payloads), torn, err)
		}
		frames[i], sizes[i] = len(payloads), valid
	}

	path := filepath.Join(dir, segWALName(1))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	keep, cut := frames[1]/2, 0
	for i := 0; i < keep; i++ {
		cut += frameHeader + int(binary.LittleEndian.Uint32(data[cut:cut+4]))
	}
	payload := []byte{tagTaskClosed, 1} // seq 1, and no task behind it
	bad := make([]byte, frameHeader, frameHeader+len(payload))
	binary.LittleEndian.PutUint32(bad[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(bad[4:8], crc32.ChecksumIEEE(payload))
	bad = append(bad, payload...)
	planted := append(append(append([]byte(nil), data[:cut]...), bad...), data[cut:]...)
	if err := os.WriteFile(path, planted, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, info := mustOpen(t, dir, opts)
	if want := int64(len(planted) - cut); info.TornBytes != want {
		t.Fatalf("TornBytes = %d, want %d (the planted frame and everything behind it)", info.TornBytes, want)
	}
	if want := frames[0] + keep + frames[2]; info.Replayed != want {
		t.Fatalf("replayed %d records, want %d (segments 0 and 2 whole, %d of segment 1)", info.Replayed, want, keep)
	}
	for i, want := range [3]int64{sizes[0], int64(cut), sizes[2]} {
		if fi, err := os.Stat(filepath.Join(dir, segWALName(i))); err != nil || fi.Size() != want {
			t.Fatalf("segment %d is %d bytes after recovery (err %v), want %d", i, fi.Size(), err, want)
		}
	}
	want := imageOf(s2)
	s2.Crash()

	s3, info := mustOpen(t, dir, opts)
	defer s3.Close()
	if info.TornBytes != 0 || info.Replayed != frames[0]+keep+frames[2] {
		t.Fatalf("second recovery: %+v, want the same records and nothing torn", info)
	}
	if got := imageOf(s3); !reflect.DeepEqual(got, want) {
		t.Fatalf("second recovery diverges from the first\n got %+v\nwant %+v", got, want)
	}
}

// TestUnknownRecordDirectoryRefused: a copy of testdata/binwal whose first
// segment file ends in a checksummed record under a tag this build does
// not know — numTags, the next tag a newer build would add, or 255 — fails
// Open with errUnknownRecord under 1, 2 and 3 segments and is left as it
// was, not cut there. Tag 0 stays malformed.
func TestUnknownRecordDirectoryRefused(t *testing.T) {
	var last uint64
	for _, p := range walPayloads(t, binWALDir) {
		var rec Record
		if err := decodeRecord(p, &rec, nil); err != nil {
			t.Fatal(err)
		}
		last = max(last, rec.Seq)
	}
	for _, tag := range []byte{numTags, 255} {
		payload := binary.AppendUvarint([]byte{tag}, last+1)
		if err := decodeRecord(payload, &Record{}, nil); !errors.Is(err, errUnknownRecord) {
			t.Fatalf("tag %d decodes to %v, want errUnknownRecord", tag, err)
		}
		for _, segments := range []int{1, 2, 3} {
			dir := t.TempDir()
			copyDir(t, binWALDir, dir)
			path := filepath.Join(dir, walName)
			if err := os.WriteFile(path, appendFrame(mustRead(t, path), payload), 0o644); err != nil {
				t.Fatal(err)
			}
			assertRefused(t, fmt.Sprintf("tag %d, segments=%d", tag, segments), dir,
				Options{Fsync: FsyncNever, Segments: segments}, errUnknownRecord)
		}
	}
	if err := decodeRecord(binary.AppendUvarint([]byte{0}, last+1), &Record{}, nil); !errors.Is(err, errMalformed) {
		t.Fatalf("tag 0 decodes to %v, want errMalformed", err)
	}
}

// TestRecoveryPhasesSumToReplayDuration holds the breakdown to "the parts
// sum to the whole": on a 20k-answer directory, from the WAL and from a
// snapshot, the four phases account for ReplayDuration to within 10 %.
func TestRecoveryPhasesSumToReplayDuration(t *testing.T) {
	for _, snapshot := range []bool{false, true} {
		dir := t.TempDir()
		opts := Options{Fsync: FsyncNever, Segments: 2}
		writeRecoveryDir(t, dir, opts, 1000, 20000, 10, snapshot)
		s, info := mustOpen(t, dir, opts)
		s.Crash()
		if info.Answers != 20000 || info.SnapshotLoaded != snapshot {
			t.Fatalf("recovered %+v", info)
		}
		if snapshot && info.SnapshotLoad <= 0 || !snapshot && (info.Decode <= 0 || info.Merge <= 0 || info.Apply <= 0) {
			t.Fatalf("snapshot=%v: a phase that did work reports no time: %+v", snapshot, info)
		}
		sum := info.SnapshotLoad + info.Decode + info.Merge + info.Apply
		if sum > info.ReplayDuration || sum < info.ReplayDuration*9/10 {
			t.Fatalf("snapshot=%v: phases sum to %v of a %v recovery (load %v, decode %v, merge %v, apply %v)",
				snapshot, sum, info.ReplayDuration, info.SnapshotLoad, info.Decode, info.Merge, info.Apply)
		}
	}
}

// TestOpenFailureClosesSegments: when a segment file cannot be opened for
// appending, the segments opened before it must not stay open.
func TestOpenFailureClosesSegments(t *testing.T) {
	openFDs := func() int {
		entries, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Skipf("cannot count open descriptors: %v", err)
		}
		return len(entries)
	}
	dir := t.TempDir()
	// A dangling symlink reads as a missing (empty) log but cannot be
	// created through, so opening segment 2 fails with 0 and 1 open.
	if err := os.Symlink(filepath.Join(dir, "missing", "wal"), filepath.Join(dir, segWALName(2))); err != nil {
		t.Skipf("cannot plant a symlink: %v", err)
	}
	before := openFDs()
	if s, _, err := Open(dir, Options{Fsync: FsyncNever, Segments: 3}); err == nil {
		s.Crash()
		t.Fatal("Open succeeded on a segment file that cannot be created")
	}
	if after := openFDs(); after != before {
		t.Fatalf("failed Open left %d descriptors open", after-before)
	}
}

// openRefusing journals a valid history plus one record that bad writes
// straight through the store's journal hook, so the live pool never sees
// it, crashes the store, and checks that Open refuses the directory with
// an error naming the WAL file and sequence number of that record — the
// one with the highest sequence number.
func openRefusing(t *testing.T, bad func(s *Store) error) {
	t.Helper()
	dir := t.TempDir()
	opts := Options{Fsync: FsyncNever, Segments: 2}
	s, _ := mustOpen(t, dir, opts)
	for id := core.TaskID(1); id <= 4; id++ {
		mustAdd(t, s, choiceTask(id, false, 0))
		if err := answer(s, core.Answer{Task: id, Worker: "w1", Option: 1}, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := bad(s); err != nil {
		t.Fatal(err)
	}
	s.Crash()
	log, err := ReadLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	var file string
	var seq uint64
	for name, records := range log {
		for _, rec := range records {
			if rec.Seq > seq {
				file, seq = name, rec.Seq
			}
		}
	}
	s, _, err = Open(dir, opts)
	if err == nil {
		s.Crash()
		t.Fatal("Open accepted a log the pool refuses")
	}
	if want := fmt.Sprintf("%s, record seq %d", file, seq); !strings.Contains(err.Error(), want) {
		t.Fatalf("Open error %q does not name %q", err, want)
	}
}

// TestReplayRefusesAnswerToUnknownTask: an answer to a task the log never
// added fails Open instead of being dropped after its cost was counted.
func TestReplayRefusesAnswerToUnknownTask(t *testing.T) {
	openRefusing(t, func(s *Store) error {
		return appendMutation(s, core.Mutation{Kind: core.MutAnswers, Answers: []core.Answer{{Task: 99, Worker: "w2", Option: 1}}})
	})
}

// TestReplayRefusesDuplicateTaskAdd: a second add of a task ID fails Open
// instead of landing under a fresh ID.
func TestReplayRefusesDuplicateTaskAdd(t *testing.T) {
	openRefusing(t, func(s *Store) error {
		return appendMutation(s, core.Mutation{Kind: core.MutAddTask, Task: choiceTask(3, false, 1)})
	})
}

// TestReplayRefusesLeaseOnUnknownTask: a lease on a task the log never
// added fails Open.
func TestReplayRefusesLeaseOnUnknownTask(t *testing.T) {
	openRefusing(t, func(s *Store) error {
		return appendMutation(s, core.Mutation{Kind: core.MutLease, Leases: []core.Lease{{Task: 99, Worker: "w2", Deadline: time.Unix(1e9, 0)}}})
	})
}

// TestRecoverySizesEachTaskOnce: recovery grows every task for all of its
// answers before the first one lands (core.Pool.Grow), so each answer
// slice is allocated once at its final size and no task is left with
// spare capacity. Checked from the WAL, from a snapshot, from a snapshot
// with more answers in the WAL behind it, and from a snapshot whose WAL
// still holds every record it covers before those answers (a crash
// between snapshot publication and WAL truncation), at the directory's
// own 2 segments and resharded to 1 and 3.
func TestRecoverySizesEachTaskOnce(t *testing.T) {
	const tasks, answers = 300, 6000
	for _, source := range []string{"wal", "snapshot", "snapshot+wal", "overlap"} {
		base := t.TempDir()
		written := Options{Fsync: FsyncNever, Segments: 2}
		writeRecoveryDir(t, base, written, tasks, answers, 10, source == "snapshot" || source == "snapshot+wal")
		want := answers
		if source == "snapshot+wal" || source == "overlap" {
			s, _ := mustOpen(t, base, written)
			if source == "overlap" {
				snap, err := s.currentSnapshot()
				if err == nil {
					err = writeSnapshot(base, snap)
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			for id := core.TaskID(1); id <= tasks; id += 3 {
				if err := answer(s, core.Answer{Task: id, Worker: "late", Option: 1}, nil); err != nil {
					t.Fatal(err)
				}
				want++
			}
			s.Crash()
		}
		for _, segments := range []int{1, 2, 3} {
			dir := t.TempDir()
			copyDir(t, base, dir)
			s, info := mustOpen(t, dir, Options{Fsync: FsyncNever, Segments: segments})
			if info.Tasks != tasks || info.Answers != want || (source == "overlap") != (info.Skipped > 0) {
				t.Fatalf("%s at %d segments: recovered %d tasks, %d answers, skipped %d records", source, segments, info.Tasks, info.Answers, info.Skipped)
			}
			s.Pool().ViewAll(func(pools []*core.Pool) {
				for _, p := range pools {
					for _, id := range p.TaskIDs() {
						if as := p.Answers(id); cap(as) != len(as) {
							t.Fatalf("%s at %d segments: task %d holds %d answers in a slice of capacity %d",
								source, segments, id, len(as), cap(as))
						}
					}
				}
			})
			s.Crash()
		}
	}
}

// TestSingleWALGapFailsOpen: one WAL file holds every sequence number
// from its first record on, so a hand-written one that skips a number
// fails Open, naming the file and the record after the gap.
func TestSingleWALGapFailsOpen(t *testing.T) {
	dir := t.TempDir()
	w, err := openWAL(filepath.Join(dir, walName))
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range []Record{
		{Seq: 1, Mut: core.Mutation{Kind: core.MutAddTask, Task: choiceTask(1, false, 0)}},
		{Seq: 2, Type: EvCqlQuestionPublished, TaskID: 1, Amount: 3},
		{Seq: 4, Mut: core.Mutation{Kind: core.MutAnswers, Answers: []core.Answer{{Task: 1, Worker: "w1", Option: 1}}}},
	} {
		if err := w.append(appendRecord(nil, &rec)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.close(false); err != nil {
		t.Fatal(err)
	}
	s, _, err := Open(dir, Options{Fsync: FsyncNever})
	if err == nil {
		s.Crash()
		t.Fatal("Open accepted a single WAL file with a gap in its sequence numbers")
	}
	if want := fmt.Sprintf("%s: record seq 4", walName); !strings.Contains(err.Error(), want) {
		t.Fatalf("Open error %q does not name %q", err, want)
	}
}

// TestSegmentLosingItsLastRecordOpens: with several WAL files a gap is a
// legal crash outcome — a record's sequence number is drawn before its
// segment writes it, so a crash can lose n in one file while n+1 reached
// another. A 2-segment directory whose segment with the earlier tail lost
// that last record opens to everything else.
func TestSegmentLosingItsLastRecordOpens(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Fsync: FsyncNever, Segments: 2}
	s, _ := mustOpen(t, dir, opts)
	for id := core.TaskID(1); id <= 8; id++ {
		mustAdd(t, s, choiceTask(id, false, 0))
		if err := answer(s, core.Answer{Task: id, Worker: "w1", Option: 1}, nil); err != nil {
			t.Fatal(err)
		}
	}
	s.Crash()

	log, err := ReadLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	cut, total := "", 0
	for name, records := range log {
		total += len(records)
		if cut == "" || records[len(records)-1].Seq < log[cut][len(log[cut])-1].Seq {
			cut = name
		}
	}
	payloads, valid, _, err := readWAL(filepath.Join(dir, cut))
	if err != nil {
		t.Fatal(err)
	}
	last := payloads[len(payloads)-1]
	if err := os.Truncate(filepath.Join(dir, cut), valid-int64(frameHeader+len(last))); err != nil {
		t.Fatal(err)
	}

	s, info := mustOpen(t, dir, opts)
	defer s.Crash()
	if info.Replayed != total-1 || info.TornBytes != 0 || info.Answers != 7 {
		t.Fatalf("recovery %+v, want %d records replayed: all but the answer %s lost", info, total-1, cut)
	}
}

// TestWALBootAllocsPerAnswer guards recovery against holding a decoded
// copy of the log again. A WAL boot of a small recovery_boot-shaped
// directory (500 tasks, 10,000 answers in batches of 10, 2 segments)
// allocates about 134 bytes per replayed answer, most of it the pool's
// own answers (72 bytes each, 76 with the voter); decoding every file
// into records before the merge, as recovery once did, took 329, and
// growing every task's arrays on its own with its own option strings
// 149. The bound leaves 25 % headroom over 134.
func TestWALBootAllocsPerAnswer(t *testing.T) {
	const bound = 165
	dir := t.TempDir()
	opts := Options{Fsync: FsyncNever, Segments: 2}
	writeRecoveryDir(t, dir, opts, 500, 10000, 10, false)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s, info := mustOpen(t, dir, opts)
	runtime.ReadMemStats(&after)
	s.Crash()
	if info.Answers != 10000 || info.SnapshotLoaded {
		t.Fatalf("recovered %+v", info)
	}
	per := float64(after.TotalAlloc-before.TotalAlloc) / float64(info.Answers)
	t.Logf("%.1f bytes per replayed answer", per)
	if per > bound {
		t.Fatalf("a WAL boot allocated %.1f bytes per replayed answer, want at most %d", per, bound)
	}
}

// TestBootObjectsPerTask pins the number of heap objects a boot makes per
// recovered task, on recovery_boot's shape (5,000 tasks, 100,000 answers
// in batches of 10, 2 segments), from the WAL and from a snapshot. Each
// task costs its *Task, its question and its options slice; its entry and
// its answer and voter arrays are carved from per-shard arrays
// (core.Pool.Reserve) and its option strings are interned. Both boots
// measure 3.1 objects per task (8.1 when every task allocated its own
// arrays and strings); the bound leaves 0.4 over that, so one allocation
// per task more fails it.
func TestBootObjectsPerTask(t *testing.T) {
	const bound = 3.5
	const tasks = 5000
	opts := Options{Fsync: FsyncNever, Segments: 2}
	for _, snapshot := range []bool{false, true} {
		dir := t.TempDir()
		writeRecoveryDir(t, dir, opts, tasks, 100000, 10, snapshot)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s, info := mustOpen(t, dir, opts)
		runtime.ReadMemStats(&after)
		s.Crash()
		if info.Tasks != tasks || info.SnapshotLoaded != snapshot {
			t.Fatalf("recovered %+v", info)
		}
		per := float64(after.Mallocs-before.Mallocs) / tasks
		t.Logf("snapshot=%v: %.2f objects per task", snapshot, per)
		if per > bound {
			t.Errorf("snapshot=%v: a boot made %.2f heap objects per recovered task, want at most %.1f", snapshot, per, bound)
		}
	}
}

// TestOpenAllocBoundedByLiveHeap pins what makes holding the collector
// through Open safe: Open allocates at most 1.6 times the live heap it
// leaves behind (measured after a collection), so what a held collector
// lets pile up is bounded by the pool Open returns. On recovery_boot's
// shape (5,000 tasks, 100,000 answers in batches of 10) under 2
// segments, the four ways a directory holds it measure
//
//	WAL only                                1.39
//	snapshot only                           1.12
//	half in the snapshot, half in the WAL   1.29
//	snapshot plus one WAL answer per task   1.17
//
// The first is the worst case: the files' bytes and their record index
// are dropped once the pool holds the answers. Every task's arrays are
// sized once, for its snapshot and WAL answers together, so the last
// shape no longer grows every task a second time (it measured 2.01 so).
// The bound leaves 0.2 over the worst. A shape past it is a regression of
// recovery's allocation, not a reason to raise it.
func TestOpenAllocBoundedByLiveHeap(t *testing.T) {
	const bound = 1.6
	const tasks, answers, batch = 5000, 100000, 10
	opts := Options{Fsync: FsyncNever, Segments: 2}
	shapes := []struct {
		name          string
		snapped, more int // answers in the snapshot (-1: no snapshot), then in the WAL
	}{
		{"WAL", -1, answers},
		{"Snapshot", answers, 0},
		{"HalfSnapshotHalfWAL", answers / 2, answers / 2},
		{"SnapshotPlusOneWALAnswerPerTask", answers, tasks},
	}
	for _, shape := range shapes {
		dir := t.TempDir()
		if shape.snapped < 0 {
			writeRecoveryDir(t, dir, opts, tasks, shape.more, batch, false)
		} else {
			writeRecoveryDir(t, dir, opts, tasks, shape.snapped, batch, true)
			s, _ := mustOpen(t, dir, opts)
			journalAnswers(t, s, tasks, shape.snapped, shape.snapped+shape.more, batch)
			s.Crash()
		}
		var before, opened, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		s, info := mustOpen(t, dir, opts)
		runtime.ReadMemStats(&opened)
		runtime.GC()
		runtime.ReadMemStats(&after)
		s.Crash()
		if want := max(shape.snapped, 0) + shape.more; info.Answers != want || info.SnapshotLoaded != (shape.snapped >= 0) {
			t.Fatalf("%s: recovered %+v, want %d answers", shape.name, info, want)
		}
		live := int64(after.HeapAlloc) - int64(before.HeapAlloc)
		ratio := float64(opened.TotalAlloc-before.TotalAlloc) / float64(live)
		t.Logf("%s: allocated %d bytes, left %d live: %.2f", shape.name, opened.TotalAlloc-before.TotalAlloc, live, ratio)
		if live <= 0 || ratio > bound {
			t.Errorf("%s: Open allocated %d bytes and left %d live, a ratio of %.2f; want at most %.2f",
				shape.name, opened.TotalAlloc-before.TotalAlloc, live, ratio, bound)
		}
	}
}

// TestCarvedArraysPinAtMostTheirSize checks the bound core.Pool.Reserve
// states for what recovery's carved arrays can keep alive: a task that
// outgrows its part of a shard's answer and voter arrays reallocates
// alone and leaves its part behind, alive as long as any other task uses
// its own, so the heap can hold up to those arrays again beside the pool.
// Booted from the recovery_boot shape's WAL (5,000 tasks with 20 answers
// each, 2 segments), one more answer on every other task reallocates half
// the tasks; after a collection the heap must hold at most the pool as it
// would be without carving — the booted heap, less the grown tasks' old
// arrays, plus their new ones — and the recovered answer arrays once more.
func TestCarvedArraysPinAtMostTheirSize(t *testing.T) {
	const tasks, answers = 5000, 100000
	const each = answers / tasks
	dir := t.TempDir()
	opts := Options{Fsync: FsyncNever, Segments: 2}
	writeRecoveryDir(t, dir, opts, tasks, answers, 10, false)
	answerSize, voterSize := int64(unsafe.Sizeof(core.Answer{})), int64(unsafe.Sizeof(int32(0)))
	// The capacities an append past a full array of each answers picks.
	grownAnswers := int64(cap(append(make([]core.Answer, each), core.Answer{})))
	grownVoters := int64(cap(append(make([]int32, each), 0)))

	heap := func() int64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	h0 := heap()
	s, info := mustOpen(t, dir, opts)
	defer s.Crash()
	if info.Tasks != tasks || info.Answers != answers {
		t.Fatalf("recovered %+v", info)
	}
	booted := heap() - h0
	grown := int64(0)
	for id := core.TaskID(1); id <= tasks; id += 2 {
		if err := answer(s, core.Answer{Task: id, Worker: "late", Option: 1}, nil); err != nil {
			t.Fatal(err)
		}
		grown++
	}
	held := heap() - h0
	recovered := answers * (answerSize + voterSize)
	unpinned := booted - grown*each*(answerSize+voterSize) + grown*(grownAnswers*answerSize+grownVoters*voterSize)
	t.Logf("booted %d, after %d grew: %d held, %d without carving, recovered arrays %d", booted, grown, held, unpinned, recovered)
	if held > unpinned+recovered {
		t.Fatalf("the heap holds %d bytes: %d over the pool's %d without carving, more than the %d bytes of the recovered answer arrays",
			held, held-unpinned, unpinned, recovered)
	}
}

// gcPercent reads the collector's GC percent.
func gcPercent() int {
	p := debug.SetGCPercent(-1)
	debug.SetGCPercent(p)
	return p
}

// TestOpenHoldsCollector: no collection runs during an Open of a
// recovery_boot-shaped directory (5,000 tasks, 100,000 answers in batches
// of 10, all in the WAL), which without the hold collects about three
// times, and the caller's GC percent is back after Open returns — after a
// successful Open and a refused one, whatever it was set to, and after
// two Opens on two goroutines, where the collector stays held until the
// last of them returns.
func TestOpenHoldsCollector(t *testing.T) {
	opts := Options{Fsync: FsyncNever, Segments: 2}
	dirs := [2]string{t.TempDir(), t.TempDir()}
	writeRecoveryDir(t, dirs[0], opts, 5000, 100000, 10, false)
	copyDir(t, dirs[0], dirs[1])
	refused := t.TempDir()
	copyDir(t, jsonWALDir, refused)

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	s, info := mustOpen(t, dirs[0], opts)
	runtime.ReadMemStats(&after)
	s.Crash()
	if info.Answers != 100000 {
		t.Fatalf("recovered %+v", info)
	}
	if n := after.NumGC - before.NumGC; n != 0 {
		t.Fatalf("%d collections ran during Open", n)
	}

	defer debug.SetGCPercent(debug.SetGCPercent(100))
	for _, percent := range []int{100, 50, -1} {
		debug.SetGCPercent(percent)
		check := func(after string) {
			t.Helper()
			if got := gcPercent(); got != percent {
				t.Fatalf("GC percent %d after %s, want the caller's %d", got, after, percent)
			}
		}
		s, _ := mustOpen(t, dirs[0], opts)
		s.Crash()
		check("an Open")
		if s, _, err := Open(refused, opts); err == nil {
			s.Crash()
			t.Fatal("a JSON-era directory opened")
		}
		check("a refused Open")

		var wg sync.WaitGroup
		errs := make(chan error, len(dirs))
		for _, dir := range dirs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				s, _, err := Open(dir, opts)
				if err == nil {
					s.Crash()
				}
				errs <- err
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
		check("two Opens on two goroutines")

		first, second := holdGC(), holdGC()
		first()
		if got := gcPercent(); got != -1 {
			t.Fatalf("GC percent %d with one of two holds released, want the collector still held", got)
		}
		second()
		check("two overlapping holds")
	}
}
