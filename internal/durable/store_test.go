package durable

import (
	"context"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
)

func choiceTask(id core.TaskID, golden bool, truth int) *core.Task {
	return &core.Task{
		ID:          id,
		Kind:        core.SingleChoice,
		Question:    fmt.Sprintf("q%d", id),
		Options:     []string{"a", "b", "c"},
		Golden:      golden,
		GroundTruth: truth,
	}
}

// The helpers below drive a bare store the way the server does: every
// mutation goes through the store's live pool, whose journal hook appends
// it before the pool applies it.

func mustAdd(tb testing.TB, s *Store, task *core.Task) {
	tb.Helper()
	if _, err := s.Pool().Add(task); err != nil {
		tb.Fatal(err)
	}
}

func mustClose(tb testing.TB, s *Store, id core.TaskID) {
	tb.Helper()
	if err := s.Pool().Close(id); err != nil {
		tb.Fatal(err)
	}
}

// mustLease leases task id to worker until deadline.
func mustLease(tb testing.TB, s *Store, id core.TaskID, worker string, deadline time.Time) {
	tb.Helper()
	pick := core.AssignerFunc(func(p *core.Pool, _ string) (core.TaskID, bool) { return id, p.Task(id) != nil })
	if _, ok, err := s.Pool().AssignLease(pick, worker, deadline); !ok || err != nil {
		tb.Fatalf("lease %d to %s: assigned %v, err %v", id, worker, ok, err)
	}
}

// appendMutation journals m through the store's journal hook alone: the
// live pool never holds it, but every recovery replays it.
func appendMutation(s *Store, m core.Mutation) error {
	_, err := s.Append(context.Background(), &m)
	return err
}

// answer is the single-answer ack path: record, then wait for the record.
func answer(s *Store, a core.Answer, golden *bool) error {
	pos, err := s.Pool().Record(context.Background(), a, golden)
	if err != nil {
		return err
	}
	return s.Sync(context.Background(), s.Pool().ShardFor(a.Task), pos)
}

// answerBatch is the batch ack path: one RecordBatch per touched shard in
// ascending order, then one Sync per shard. goldens may be nil. It returns
// the first rejection or journal error.
func answerBatch(s *Store, as []core.Answer, goldens []*bool) error {
	pool := s.Pool()
	byShard := make([][]int, pool.NumShards())
	for i, a := range as {
		sh := pool.ShardFor(a.Task)
		byShard[sh] = append(byShard[sh], i)
	}
	pos := make([]uint64, len(byShard))
	for sh, idxs := range byShard {
		if len(idxs) == 0 {
			continue
		}
		part := make([]core.Answer, len(idxs))
		var grades []*bool
		for j, i := range idxs {
			part[j] = as[i]
			if goldens != nil {
				grades = append(grades, goldens[i])
			}
		}
		var errs []error
		errs, pos[sh] = pool.RecordBatch(sh, part, grades)
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
	}
	for sh, idxs := range byShard {
		if len(idxs) > 0 {
			if err := s.Sync(context.Background(), sh, pos[sh]); err != nil {
				return err
			}
		}
	}
	return nil
}

// state is what a store persists: its live pool, copied flat, and the
// ledger.
func state(s *Store) (*core.Pool, int64, map[string]core.ScreenTally) {
	spent, screen := s.Ledger()
	return flat(s.Pool()), spent, screen
}

// flat copies a sharded pool into one unlocked core.Pool under ViewAll —
// tasks in ID order with their answers, leases and closes — so a test
// reads the state through the Pool API.
func flat(sp *core.ShardedPool) *core.Pool {
	out := core.NewPool()
	sp.ViewAll(func(pools []*core.Pool) {
		ids := core.TaskIDsOf(pools)
		for _, id := range ids {
			p := pools[core.ShardIndex(id, len(pools))]
			task := *p.Task(id)
			out.MustAdd(&task)
			for _, a := range p.Answers(id) {
				if err := out.Record(a); err != nil {
					panic(err)
				}
			}
		}
		for _, l := range core.LeasesOf(pools) {
			if err := out.Lease(l.Task, l.Worker, l.Deadline); err != nil {
				panic(err)
			}
		}
		for _, id := range ids {
			if pools[core.ShardIndex(id, len(pools))].Closed(id) {
				out.Close(id)
			}
		}
	})
	return out
}

func mustOpen(t *testing.T, dir string, opts Options) (*Store, *RecoveryInfo) {
	t.Helper()
	s, info, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return s, info
}

func TestParseFsync(t *testing.T) {
	cases := []struct {
		in     string
		policy FsyncPolicy
		every  time.Duration
		ok     bool
	}{
		{"", FsyncAlways, 0, true},
		{"always", FsyncAlways, 0, true},
		{"off", FsyncNever, 0, true},
		{"none", FsyncNever, 0, true},
		{"never", FsyncNever, 0, true},
		{"100ms", FsyncInterval, 100 * time.Millisecond, true},
		{"2s", FsyncInterval, 2 * time.Second, true},
		{"-5ms", 0, 0, false},
		{"0", 0, 0, false},
		{"sometimes", 0, 0, false},
	}
	for _, c := range cases {
		p, d, err := ParseFsync(c.in)
		if c.ok != (err == nil) {
			t.Fatalf("ParseFsync(%q) err = %v, want ok=%v", c.in, err, c.ok)
		}
		if c.ok && (p != c.policy || d != c.every) {
			t.Errorf("ParseFsync(%q) = (%v, %v), want (%v, %v)", c.in, p, d, c.policy, c.every)
		}
	}
}

func TestWALRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), walName)
	w, err := openWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	var want [][]byte
	for i := 0; i < 10; i++ {
		p := []byte(fmt.Sprintf(`{"rec":%d,"pad":%q}`, i, string(make([]byte, i*7))))
		want = append(want, p)
		if err := w.append(p); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if err := w.close(false); err != nil {
		t.Fatal(err)
	}
	got, _, torn, err := readWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if torn != 0 {
		t.Fatalf("clean log reported %d torn bytes", torn)
	}
	if len(got) != len(want) {
		t.Fatalf("read %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if string(got[i]) != string(want[i]) {
			t.Errorf("record %d = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestWALMissingFileIsEmpty(t *testing.T) {
	got, valid, torn, err := readWAL(filepath.Join(t.TempDir(), walName))
	if err != nil || len(got) != 0 || valid != 0 || torn != 0 {
		t.Fatalf("missing WAL = (%d records, %d valid, %d torn, %v), want empty", len(got), valid, torn, err)
	}
}

func TestWALTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), walName)
	w, err := openWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := w.append([]byte(fmt.Sprintf(`{"rec":%d}`, i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.close(false); err != nil {
		t.Fatal(err)
	}

	// A crash mid-append: a full header promising 64 bytes, then only 5.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	frame := make([]byte, frameHeader+5)
	binary.LittleEndian.PutUint32(frame[0:4], 64)
	if _, err := f.Write(frame); err != nil {
		t.Fatal(err)
	}
	f.Close()

	got, valid, torn, err := readWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("read %d records past torn tail, want 3", len(got))
	}
	if torn != int64(len(frame)) {
		t.Fatalf("torn = %d bytes, want %d", torn, len(frame))
	}
	fi, _ := os.Stat(path)
	if valid+torn != fi.Size() {
		t.Fatalf("valid %d + torn %d != file size %d", valid, torn, fi.Size())
	}
}

func TestWALCorruptRecordStopsReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), walName)
	w, err := openWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := w.append([]byte(fmt.Sprintf(`{"rec":%d}`, i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.close(false); err != nil {
		t.Fatal(err)
	}

	// Flip one payload byte of the middle record: everything from there on
	// is untrusted.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rec0 := frameHeader + len(`{"rec":0}`)
	data[rec0+frameHeader+2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	got, valid, torn, err := readWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("read %d records before corruption, want 1", len(got))
	}
	if valid != int64(rec0) || torn != int64(len(data)-rec0) {
		t.Fatalf("valid=%d torn=%d, want %d and %d", valid, torn, rec0, len(data)-rec0)
	}
}

func TestStoreRoundTripAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	s, info := mustOpen(t, dir, Options{Fsync: FsyncNever})
	if !info.Empty() {
		t.Fatalf("fresh dir reported recovered state: %+v", info)
	}

	yes, no := true, false
	mustAdd(t, s, choiceTask(0, false, 1))
	mustAdd(t, s, choiceTask(1, true, 2))
	if err := answer(s, core.Answer{Task: 0, Worker: "w1", Option: 1}, nil); err != nil {
		t.Fatal(err)
	}
	if err := answer(s, core.Answer{Task: 1, Worker: "w1", Option: 2}, &yes); err != nil {
		t.Fatal(err)
	}
	if err := answer(s, core.Answer{Task: 1, Worker: "w2", Option: 0}, &no); err != nil {
		t.Fatal(err)
	}
	mustLease(t, s, 0, "w3", time.Unix(100, 0))
	mustClose(t, s, 1)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, info := mustOpen(t, dir, Options{Fsync: FsyncNever})
	defer s2.Close()
	// Close snapshots, so the reopen should come entirely from pool.snap.
	if !info.SnapshotLoaded || info.Replayed != 0 {
		t.Fatalf("reopen after clean Close: %+v, want snapshot only", info)
	}
	pool, spent, screen := state(s2)
	if pool.Len() != 2 {
		t.Fatalf("recovered %d tasks, want 2", pool.Len())
	}
	if n := pool.TotalAnswers(); n != 3 {
		t.Fatalf("recovered %d answers, want 3", n)
	}
	if spent != 3 {
		t.Fatalf("recovered spent = %v, want 3", spent)
	}
	if !pool.Closed(1) || pool.Closed(0) {
		t.Fatalf("closed flags wrong: task0=%v task1=%v", pool.Closed(0), pool.Closed(1))
	}
	if !pool.HasLease("w3", 0) {
		t.Fatal("lease w3/task0 not recovered")
	}
	if got := screen["w1"]; got != (core.ScreenTally{Correct: 1, Total: 1}) {
		t.Fatalf("screen[w1] = %+v", got)
	}
	if got := screen["w2"]; got != (core.ScreenTally{Correct: 0, Total: 1}) {
		t.Fatalf("screen[w2] = %+v", got)
	}
	if t0 := pool.Task(0); t0 == nil || t0.GroundTruth != 1 || t0.Question != "q0" {
		t.Fatalf("task 0 fields not recovered: %+v", t0)
	}
}

func TestStoreCrashKeepsAcknowledgedAnswers(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir, Options{Fsync: FsyncNever})
	mustAdd(t, s, choiceTask(0, false, -1))
	for i := 0; i < 5; i++ {
		a := core.Answer{Task: 0, Worker: fmt.Sprintf("w%d", i), Option: i % 3}
		if err := answer(s, a, nil); err != nil {
			t.Fatal(err)
		}
	}
	s.Crash()
	if err := answer(s, core.Answer{Task: 0, Worker: "late", Option: 0}, nil); err == nil {
		t.Fatal("append after Crash succeeded; the store must go sticky-failed")
	}

	s2, info := mustOpen(t, dir, Options{Fsync: FsyncNever})
	defer s2.Close()
	if info.SnapshotLoaded || info.Replayed != 6 {
		t.Fatalf("crash recovery: %+v, want 6 replayed records and no snapshot", info)
	}
	pool, spent, _ := state(s2)
	if n := pool.TotalAnswers(); n != 5 || spent != 5 {
		t.Fatalf("recovered %d answers, spent %v; want 5 and 5", n, spent)
	}
}

func TestSnapshotCompactsWAL(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir, Options{Fsync: FsyncNever})
	mustAdd(t, s, choiceTask(0, false, -1))
	if err := answer(s, core.Answer{Task: 0, Worker: "w", Option: 0}, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(filepath.Join(dir, walName))
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != 0 {
		t.Fatalf("WAL is %d bytes after snapshot, want 0", fi.Size())
	}
	// Idempotent when nothing new was journaled.
	if err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	// Records appended after the snapshot land in the (truncated) log and
	// replay on top of it.
	if err := answer(s, core.Answer{Task: 0, Worker: "w2", Option: 1}, nil); err != nil {
		t.Fatal(err)
	}
	s.Crash()

	s2, info := mustOpen(t, dir, Options{Fsync: FsyncNever})
	defer s2.Close()
	if !info.SnapshotLoaded || info.Replayed != 1 || info.Skipped != 0 {
		t.Fatalf("recovery after snapshot+append: %+v", info)
	}
	pool, spent, _ := state(s2)
	if n := pool.TotalAnswers(); n != 2 || spent != 2 {
		t.Fatalf("recovered %d answers, spent %v; want 2 and 2", n, spent)
	}
}

func TestRecoverySkipsRecordsCoveredBySnapshot(t *testing.T) {
	// Simulate a crash in the window after the snapshot was published but
	// before the WAL was truncated: every journaled record is both in the
	// snapshot and in the log, and replay must not double-apply it.
	dir := t.TempDir()
	s, _ := mustOpen(t, dir, Options{Fsync: FsyncNever})
	mustAdd(t, s, choiceTask(0, false, -1))
	for i := 0; i < 4; i++ {
		a := core.Answer{Task: 0, Worker: fmt.Sprintf("w%d", i), Option: 0}
		if err := answer(s, a, nil); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := s.currentSnapshot()
	if err == nil {
		err = writeSnapshot(dir, snap)
	}
	if err != nil {
		t.Fatal(err)
	}
	s.Crash() // WAL still holds all 5 records

	s2, info := mustOpen(t, dir, Options{Fsync: FsyncNever})
	defer s2.Close()
	if !info.SnapshotLoaded || info.Skipped != 5 || info.Replayed != 0 {
		t.Fatalf("overlap recovery: %+v, want 5 skipped", info)
	}
	pool, spent, _ := state(s2)
	if n := pool.TotalAnswers(); n != 4 || spent != 4 {
		t.Fatalf("answers doubled or lost: %d answers, spent %v; want 4 and 4", n, spent)
	}
}

func TestOpenTruncatesTornTail(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir, Options{Fsync: FsyncNever})
	mustAdd(t, s, choiceTask(0, false, -1))
	if err := answer(s, core.Answer{Task: 0, Worker: "w", Option: 0}, nil); err != nil {
		t.Fatal(err)
	}
	s.Crash()

	walPath := filepath.Join(dir, walName)
	f, err := os.OpenFile(walPath, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{9, 9, 9}); err != nil {
		t.Fatal(err)
	}
	f.Close()
	fi, _ := os.Stat(walPath)
	dirtySize := fi.Size()

	s2, info := mustOpen(t, dir, Options{Fsync: FsyncNever})
	if info.TornBytes != 3 || info.Replayed != 2 {
		t.Fatalf("torn recovery: %+v, want 3 torn bytes and 2 replayed", info)
	}
	fi, _ = os.Stat(walPath)
	if fi.Size() != dirtySize-3 {
		t.Fatalf("WAL is %d bytes after open, want %d (tail truncated)", fi.Size(), dirtySize-3)
	}
	// The log must still be appendable and replayable after the cut.
	if err := answer(s2, core.Answer{Task: 0, Worker: "w2", Option: 1}, nil); err != nil {
		t.Fatal(err)
	}
	s2.Crash()
	s3, info := mustOpen(t, dir, Options{Fsync: FsyncNever})
	defer s3.Close()
	if info.TornBytes != 0 || info.Replayed != 3 {
		t.Fatalf("post-truncation recovery: %+v, want clean log with 3 records", info)
	}
}

func TestConcurrentAppendsAllSurvive(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir, Options{Fsync: FsyncNever})
	// Collection tasks accept repeated answers from the same worker (up to
	// the resubmission cap), so every goroutine can hammer the same task.
	mustAdd(t, s, &core.Task{ID: 0, Kind: core.Collection, Question: "enumerate"})
	const workers, each = 8, core.MaxRepeatAnswers
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				a := core.Answer{Task: 0, Worker: fmt.Sprintf("w%d", w), Text: fmt.Sprintf("item-%d-%d", w, i)}
				if err := answer(s, a, nil); err != nil {
					t.Errorf("worker %d append %d: %v", w, i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	s.Crash()

	s2, info := mustOpen(t, dir, Options{Fsync: FsyncNever})
	defer s2.Close()
	if info.Replayed != workers*each+1 {
		t.Fatalf("replayed %d records, want %d", info.Replayed, workers*each+1)
	}
	pool, spent, _ := state(s2)
	if n := pool.TotalAnswers(); n != workers*each || spent != workers*each {
		t.Fatalf("recovered %d answers, spent %v; want %d", n, spent, workers*each)
	}
}

func TestStoreImplementsJournalThroughConcurrentPool(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir, Options{Fsync: FsyncNever})
	var _ core.Journal = s

	cp := s.Pool()
	id0, err := cp.Add(choiceTask(0, false, -1))
	if err != nil {
		t.Fatal(err)
	}
	id1, err := cp.Add(choiceTask(1, false, -1))
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Unix(50, 0)
	if _, ok, err := cp.AssignLease(core.AssignerFunc(func(p *core.Pool, w string) (core.TaskID, bool) {
		return id0, true
	}), "w1", deadline); !ok || err != nil {
		t.Fatalf("AssignLease failed: %v", err)
	}
	if exp, err := cp.ExpireLeases(time.Unix(60, 0)); len(exp) != 1 || err != nil {
		t.Fatalf("expired %d leases (err %v), want 1", len(exp), err)
	}
	if err := cp.Close(id1); err != nil {
		t.Fatal(err)
	}
	s.Crash()

	s2, _ := mustOpen(t, dir, Options{Fsync: FsyncNever})
	defer s2.Close()
	pool, _, _ := state(s2)
	if pool.Len() != 2 {
		t.Fatalf("recovered %d tasks, want 2", pool.Len())
	}
	if pool.HasLease("w1", id0) {
		t.Fatal("expired lease resurrected by replay")
	}
	if !pool.Closed(id1) {
		t.Fatal("close not replayed")
	}
}

func TestWorkerEliminationMarkerAndTallies(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir, Options{Fsync: FsyncNever})
	mustAdd(t, s, choiceTask(0, true, 1))
	no := false
	for i := 0; i < 3; i++ {
		if err := answer(s, core.Answer{Task: 0, Worker: fmt.Sprintf("w%d", i), Option: 0}, &no); err != nil {
			t.Fatal(err)
		}
	}
	s.Crash()

	s2, _ := mustOpen(t, dir, Options{Fsync: FsyncNever})
	defer s2.Close()
	_, _, screen := state(s2)
	for i := 0; i < 3; i++ {
		w := fmt.Sprintf("w%d", i)
		if screen[w] != (core.ScreenTally{Correct: 0, Total: 1}) {
			t.Fatalf("screen[%s] = %+v, want one miss", w, screen[w])
		}
	}
	// Feed the tallies into a screen and confirm the elimination re-derives.
	ws := core.NewWorkerScreen(1, 0.5)
	ws.Restore(screen)
	if !ws.Eliminated("w0") {
		t.Fatal("restored tallies did not re-derive the elimination")
	}
}

func TestFsyncIntervalFlusherAndGracefulClose(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir, Options{Fsync: FsyncInterval, FsyncEvery: 5 * time.Millisecond, SnapshotEvery: 5 * time.Millisecond})
	mustAdd(t, s, choiceTask(0, false, -1))
	for i := 0; i < 20; i++ {
		a := core.Answer{Task: 0, Worker: fmt.Sprintf("w%d", i), Option: 0}
		if err := answer(s, a, nil); err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Millisecond)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, _ := mustOpen(t, dir, Options{Fsync: FsyncNever})
	defer s2.Close()
	pool, spent, _ := state(s2)
	if n := pool.TotalAnswers(); n != 20 || spent != 20 {
		t.Fatalf("recovered %d answers, spent %v; want 20", n, spent)
	}
}

// Before answers were appended under the shard lock, the answer path
// journaled after it released the lock while a close journaled under it:
// the record of the answer that completed a question could land behind the
// task-closed record. A log in that order must still open to the state
// it was acked at — from the log, and from the snapshot the reopened store
// cuts.
func TestAnswerJournaledBehindCloseSurvives(t *testing.T) {
	dir := t.TempDir()
	w, err := openWAL(filepath.Join(dir, walName))
	if err != nil {
		t.Fatal(err)
	}
	ans := func(w string) core.Mutation {
		return core.Mutation{Kind: core.MutAnswers, Answers: []core.Answer{{Task: 1, Worker: w, Option: 1}}}
	}
	for i, m := range []core.Mutation{
		{Kind: core.MutAddTask, Task: &core.Task{ID: 1, Kind: core.SingleChoice, Question: "q1", Options: []string{"a", "b", "c"}}},
		ans("w1"),
		ans("w2"),
		{Kind: core.MutClose, ID: 1},
		ans("w3"),
	} {
		if err := w.append(appendRecord(nil, &Record{Seq: uint64(i + 1), Mut: m})); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.close(false); err != nil {
		t.Fatal(err)
	}
	check := func(when string, s *Store) {
		t.Helper()
		pool, spent, _ := state(s)
		if n := pool.AnswerCount(1); n != 3 || spent != 3 || !pool.Closed(1) {
			t.Fatalf("%s: %d answers, spent %v, closed %v; want 3 answers paid by 3 units on a closed task",
				when, n, spent, pool.Closed(1))
		}
	}
	s, info := mustOpen(t, dir, Options{Fsync: FsyncNever})
	if info.Replayed != 5 {
		t.Fatalf("replayed %d records, want 5", info.Replayed)
	}
	check("after replay", s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, info := mustOpen(t, dir, Options{Fsync: FsyncNever})
	defer s2.Close()
	if !info.SnapshotLoaded || info.Replayed != 0 {
		t.Fatalf("reopen after Close: %+v, want the snapshot alone", info)
	}
	check("from the snapshot", s2)
}
