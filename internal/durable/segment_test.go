package durable

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
)

// driveScript journals a fixed mutation script: 16 tasks spread across
// segments, answers (golden and plain), leases, expiries, a close, and
// budget adjustments. Any two stores that replay it must converge.
func driveScript(t *testing.T, s *Store) {
	t.Helper()
	for i := 0; i < 16; i++ {
		mustAdd(t, s, choiceTask(core.TaskID(i+1), i%4 == 0, i%3))
	}
	yes, no := true, false
	for i := 0; i < 16; i++ {
		id := core.TaskID(i + 1)
		var g *bool
		if i%4 == 0 {
			if i%8 == 0 {
				g = &yes
			} else {
				g = &no
			}
		}
		a := core.Answer{Task: id, Worker: fmt.Sprintf("w%d", i%5), Option: i % 3}
		if err := answer(s, a, g); err != nil {
			t.Fatal(err)
		}
	}
	mustLease(t, s, 2, "lw", time.Unix(200, 0))
	mustLease(t, s, 3, "lw", time.Unix(100, 0))
	if exp, err := s.Pool().ExpireLeases(time.Unix(150, 0)); err != nil || len(exp) != 1 || exp[0].Task != 3 {
		t.Fatalf("lease sweep reclaimed %v (err %v), want task 3's lease", exp, err)
	}
	mustClose(t, s, 5)
	if err := s.CQLQuestionPublished(6, 3); err != nil {
		t.Fatal(err)
	}
	if err := s.CQLQuestionRefunded(6, 1); err != nil {
		t.Fatal(err)
	}
}

// statesEquivalent compares two recovered states task by task.
func statesEquivalent(t *testing.T, label string, wp, gp *core.Pool, ws, gs int64, wscr, gscr map[string]core.ScreenTally) {
	t.Helper()
	if wp.Len() != gp.Len() || wp.TotalAnswers() != gp.TotalAnswers() {
		t.Fatalf("%s: shape diverges: %d/%d tasks, %d/%d answers",
			label, gp.Len(), wp.Len(), gp.TotalAnswers(), wp.TotalAnswers())
	}
	for _, id := range wp.TaskIDs() {
		if gp.Task(id) == nil {
			t.Fatalf("%s: task %d missing", label, id)
		}
		if !reflect.DeepEqual(wp.Answers(id), gp.Answers(id)) {
			t.Fatalf("%s: task %d answers diverge:\n got %v\nwant %v", label, id, gp.Answers(id), wp.Answers(id))
		}
		if wp.Closed(id) != gp.Closed(id) {
			t.Fatalf("%s: task %d closed flag diverges", label, id)
		}
		if wp.LeaseCount(id) != gp.LeaseCount(id) {
			t.Fatalf("%s: task %d lease count diverges", label, id)
		}
	}
	if ws != gs {
		t.Fatalf("%s: spent %v, want %v", label, gs, ws)
	}
	if !reflect.DeepEqual(wscr, gscr) {
		t.Fatalf("%s: screen diverges: got %v, want %v", label, gscr, wscr)
	}
}

// TestSegmentedRecoveryMatchesSingleWAL is the core segmented-durability
// contract: N segment files replay to exactly the state one WAL produced.
func TestSegmentedRecoveryMatchesSingleWAL(t *testing.T) {
	refDir, segDir := t.TempDir(), t.TempDir()
	ref, _ := mustOpen(t, refDir, Options{Fsync: FsyncNever, Segments: 1})
	driveScript(t, ref)
	ref.Crash()

	seg, _ := mustOpen(t, segDir, Options{Fsync: FsyncNever, Segments: 4})
	driveScript(t, seg)
	// The events must actually be spread over several files.
	nonEmpty := 0
	for i := 0; i < 4; i++ {
		if fi, err := os.Stat(filepath.Join(segDir, segWALName(i))); err == nil && fi.Size() > 0 {
			nonEmpty++
		}
	}
	if nonEmpty < 2 {
		t.Fatalf("only %d non-empty WAL segments; the script should spread across several", nonEmpty)
	}
	seg.Crash()

	ref2, _ := mustOpen(t, refDir, Options{Fsync: FsyncNever, Segments: 1})
	defer ref2.Close()
	seg2, info := mustOpen(t, segDir, Options{Fsync: FsyncNever, Segments: 4})
	defer seg2.Close()
	if info.Segments != 4 {
		t.Fatalf("recovery reports %d segments, want 4", info.Segments)
	}
	wp, ws, wscr := state(ref2)
	gp, gs, gscr := state(seg2)
	statesEquivalent(t, "segmented vs single", wp, gp, ws, gs, wscr, gscr)
}

// TestReshardRecovery reopens a 4-segment directory with 2 segments and
// then with 1: events re-route to their new owners, stale files are
// compacted into a snapshot and removed, and the state never changes.
func TestReshardRecovery(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir, Options{Fsync: FsyncNever, Segments: 4})
	driveScript(t, s)
	s.Crash()

	s4, _ := mustOpen(t, dir, Options{Fsync: FsyncNever, Segments: 4})
	wp, ws, wscr := state(s4)
	s4.Crash()

	s2, _ := mustOpen(t, dir, Options{Fsync: FsyncNever, Segments: 2})
	gp, gs, gscr := state(s2)
	statesEquivalent(t, "4->2 reshard", wp, gp, ws, gs, wscr, gscr)
	// The segments of the old layout must be gone (their events live in
	// the forced snapshot now).
	for i := 2; i < 4; i++ {
		if _, err := os.Stat(filepath.Join(dir, segWALName(i))); !os.IsNotExist(err) {
			t.Fatalf("stale segment %s survived the reshard", segWALName(i))
		}
	}
	// New appends post-reshard land in the new layout and survive.
	if err := answer(s2, core.Answer{Task: 7, Worker: "post", Option: 0}, nil); err != nil {
		t.Fatal(err)
	}
	s2.Crash()

	s1, _ := mustOpen(t, dir, Options{Fsync: FsyncNever, Segments: 1})
	defer s1.Close()
	gp2, gs2, _ := state(s1)
	if gp2.TotalAnswers() != wp.TotalAnswers()+1 {
		t.Fatalf("2->1 reshard: %d answers, want %d", gp2.TotalAnswers(), wp.TotalAnswers()+1)
	}
	if gs2 != ws+1 {
		t.Fatalf("2->1 reshard: spent %v, want %v", gs2, ws+1)
	}
}

// TestSegmentedTornTailIsolated verifies a torn tail on one segment does
// not lose the other segments' records.
func TestSegmentedTornTailIsolated(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir, Options{Fsync: FsyncNever, Segments: 4})
	driveScript(t, s)
	s.Crash()

	// Find a non-empty segment file and tear its tail.
	var torn string
	for i := 0; i < 4; i++ {
		p := filepath.Join(dir, segWALName(i))
		if fi, err := os.Stat(p); err == nil && fi.Size() > 0 {
			torn = p
			break
		}
	}
	if torn == "" {
		t.Fatal("no non-empty segment to tear")
	}
	f, err := os.OpenFile(torn, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{1, 2, 3, 4, 5}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2, info := mustOpen(t, dir, Options{Fsync: FsyncNever, Segments: 4})
	defer s2.Close()
	if info.TornBytes != 5 {
		t.Fatalf("torn bytes = %d, want 5", info.TornBytes)
	}
	pool, _, _ := state(s2)
	if pool.Len() != 16 || pool.TotalAnswers() != 16 {
		t.Fatalf("torn-tail recovery lost records: %d tasks, %d answers", pool.Len(), pool.TotalAnswers())
	}
}

// TestSegmentedSnapshotCompactsAllSegments checks Snapshot truncates
// every segment file and recovery then comes from the snapshot alone.
func TestSegmentedSnapshotCompactsAllSegments(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir, Options{Fsync: FsyncNever, Segments: 4})
	driveScript(t, s)
	if err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if fi, err := os.Stat(filepath.Join(dir, segWALName(i))); err != nil || fi.Size() != 0 {
			t.Fatalf("segment %d not truncated after snapshot", i)
		}
	}
	s.Crash()
	s2, info := mustOpen(t, dir, Options{Fsync: FsyncNever, Segments: 4})
	defer s2.Close()
	if !info.SnapshotLoaded || info.Replayed != 0 {
		t.Fatalf("recovery after snapshot: %+v, want snapshot only", info)
	}
	pool, _, _ := state(s2)
	if pool.Len() != 16 || pool.TotalAnswers() != 16 {
		t.Fatalf("snapshot recovery lost state: %d tasks, %d answers", pool.Len(), pool.TotalAnswers())
	}
}

// TestAnswerBatchDurable journals one batch spanning several segments and
// verifies every answer, the total cost, and the golden tallies recover.
func TestAnswerBatchDurable(t *testing.T) {
	for _, segments := range []int{1, 4} {
		dir := t.TempDir()
		s, _ := mustOpen(t, dir, Options{Fsync: FsyncNever, Segments: segments})
		for i := 0; i < 8; i++ {
			mustAdd(t, s, choiceTask(core.TaskID(i+1), i == 0, 0))
		}
		yes := true
		as := make([]core.Answer, 8)
		goldens := make([]*bool, 8)
		for i := range as {
			as[i] = core.Answer{Task: core.TaskID(i + 1), Worker: "batcher", Option: 0}
		}
		goldens[0] = &yes
		if err := answerBatch(s, as, goldens); err != nil {
			t.Fatal(err)
		}
		s.Crash()

		s2, _ := mustOpen(t, dir, Options{Fsync: FsyncNever, Segments: segments})
		pool, spent, screen := state(s2)
		if pool.TotalAnswers() != 8 {
			t.Fatalf("segments=%d: recovered %d batch answers, want 8", segments, pool.TotalAnswers())
		}
		if spent != 8 {
			t.Fatalf("segments=%d: spent %v, want 8", segments, spent)
		}
		if screen["batcher"] != (core.ScreenTally{Correct: 1, Total: 1}) {
			t.Fatalf("segments=%d: screen = %+v", segments, screen["batcher"])
		}
		s2.Close()
	}
}

// TestBatchAfterCrashFails pins the sticky-failure contract for the batch
// path: a crashed store must refuse batch appends.
func TestBatchAfterCrashFails(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir, Options{Fsync: FsyncNever, Segments: 2})
	mustAdd(t, s, choiceTask(1, false, 0))
	s.Crash()
	err := answerBatch(s, []core.Answer{{Task: 1, Worker: "w", Option: 0}}, nil)
	if err == nil {
		t.Fatal("batch append after Crash succeeded; the store must be sticky-failed")
	}
}

// TestSegmentedFsyncAlwaysGroupCommit exercises the FsyncAlways ack path
// against a segmented store under concurrency (the group-commit path),
// then proves everything acked is on disk.
func TestSegmentedFsyncAlwaysGroupCommit(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir, Options{Fsync: FsyncAlways, Segments: 4})
	for i := 0; i < 8; i++ {
		mustAdd(t, s, choiceTask(core.TaskID(i+1), false, -1))
	}
	done := make(chan error, 8)
	for w := 0; w < 8; w++ {
		go func(w int) {
			var err error
			for i := 0; i < 8 && err == nil; i++ {
				a := core.Answer{Task: core.TaskID(i + 1), Worker: fmt.Sprintf("gc%d", w), Option: 0}
				err = answer(s, a, nil)
			}
			done <- err
		}(w)
	}
	for i := 0; i < 8; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	s.Crash()
	s2, _ := mustOpen(t, dir, Options{Fsync: FsyncNever, Segments: 4})
	defer s2.Close()
	pool, _, _ := state(s2)
	if pool.TotalAnswers() != 64 {
		t.Fatalf("recovered %d acked answers, want 64", pool.TotalAnswers())
	}
}
