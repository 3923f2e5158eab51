package core

import (
	"fmt"
	"reflect"
	"testing"
)

func choiceTask(id TaskID) *Task {
	return &Task{ID: id, Kind: SingleChoice, Options: []string{"a", "b"}}
}

func TestAnswerLogCoversAppends(t *testing.T) {
	sp := newSharded(1)
	cp := sp.shards[0]
	for i := 1; i <= 4; i++ {
		if _, err := sp.Add(choiceTask(TaskID(i))); err != nil {
			t.Fatal(err)
		}
	}
	v0 := sp.Version()

	// Before anything lands, the delta from v0 is empty but covered.
	cp.mu.RLock()
	got, ok := cp.appendedSinceLocked(v0, nil)
	cp.mu.RUnlock()
	if !ok || len(got) != 0 {
		t.Fatalf("empty window: got %v, covered=%v", got, ok)
	}

	a1 := Answer{Task: 1, Worker: "w1", Option: 0}
	a2 := Answer{Task: 2, Worker: "w1", Option: 1}
	if err := record(sp, a1); err != nil {
		t.Fatal(err)
	}
	v1 := sp.Version()
	// A batch shares one post-bump version.
	batch := []Answer{a2, {Task: 2, Worker: "w1", Option: 1}} // duplicate rejected
	errs, _ := sp.RecordBatch(0, batch, nil)
	if errs[0] != nil || errs[1] == nil {
		t.Fatalf("batch errors = %v", errs)
	}
	// Closing a task bumps the version but appends no answers; the log
	// stays valid across it.
	sp.Close(4)

	cp.mu.RLock()
	defer cp.mu.RUnlock()
	if got, ok := cp.appendedSinceLocked(v0, nil); !ok || !reflect.DeepEqual(got, []Answer{a1, a2}) {
		t.Fatalf("delta since v0 = (%v, %v), want both answers", got, ok)
	}
	if got, ok := cp.appendedSinceLocked(v1, nil); !ok || !reflect.DeepEqual(got, []Answer{a2}) {
		t.Fatalf("delta since v1 = (%v, %v), want the batch answer", got, ok)
	}
	if got, ok := cp.appendedSinceLocked(sp.Version(), nil); !ok || len(got) != 0 {
		t.Fatalf("delta since head = (%v, %v), want empty", got, ok)
	}
	// A window starting before the last task add is not covered.
	if _, ok := cp.appendedSinceLocked(v0-1, nil); ok {
		t.Fatal("window predating the last task add reported as covered")
	}
}

func TestAnswerLogStructuralInvalidation(t *testing.T) {
	sp := newSharded(1)
	cp := sp.shards[0]
	if _, err := sp.Add(choiceTask(1)); err != nil {
		t.Fatal(err)
	}
	v0 := sp.Version()
	a := Answer{Task: 1, Worker: "w1", Option: 0}
	if err := record(sp, a); err != nil {
		t.Fatal(err)
	}

	// Adding a task is structural: old windows die, new ones work.
	if _, err := sp.Add(choiceTask(2)); err != nil {
		t.Fatal(err)
	}
	vAdd := sp.Version()
	cp.mu.RLock()
	if cp.canDeltaLocked(v0) {
		t.Fatal("window across a task add reported as covered")
	}
	if !cp.canDeltaLocked(vAdd) {
		t.Fatal("fresh window after a task add not covered")
	}
	cp.mu.RUnlock()

	if err := record(sp, Answer{Task: 2, Worker: "w1", Option: 1}); err != nil {
		t.Fatal(err)
	}
	cp.mu.RLock()
	defer cp.mu.RUnlock()
	if got, ok := cp.appendedSinceLocked(vAdd, nil); !ok || len(got) != 1 {
		t.Fatalf("delta since the task add = (%v, %v), want the one answer after it", got, ok)
	}
}

func TestAnswerLogTrim(t *testing.T) {
	sp := newSharded(1)
	cp := sp.shards[0]
	cp.alogCap = 8
	if _, err := sp.Add(&Task{ID: 1, Kind: MultiChoice, Options: []string{"a", "b"}}); err != nil {
		t.Fatal(err)
	}
	v0 := sp.Version()
	var vers []uint64
	for i := 0; i < 12; i++ {
		if err := record(sp, Answer{Task: 1, Worker: fmt.Sprintf("w%d", i), Option: i % 2}); err != nil {
			t.Fatal(err)
		}
		vers = append(vers, sp.Version())
	}
	cp.mu.RLock()
	defer cp.mu.RUnlock()
	// The window from the start was trimmed away.
	if cp.canDeltaLocked(v0) {
		t.Fatal("trimmed window reported as covered")
	}
	// A window starting at the trim point is covered and returns exactly
	// the retained tail.
	if got, ok := cp.appendedSinceLocked(cp.alogTrim, nil); !ok || len(got) != len(cp.alog) {
		t.Fatalf("tail window = (%d answers, %v), want %d", len(got), ok, len(cp.alog))
	}
	// Recent windows survive the trim.
	if got, ok := cp.appendedSinceLocked(vers[10], nil); !ok || len(got) != 1 {
		t.Fatalf("recent window = (%d answers, %v), want 1", len(got), ok)
	}
}

func TestShardedViewDelta(t *testing.T) {
	sp := newSharded(4)
	for i := 1; i <= 32; i++ {
		if _, err := sp.Add(choiceTask(TaskID(i))); err != nil {
			t.Fatal(err)
		}
	}

	var snap []uint64
	sp.ViewDelta(func(v *DeltaView) {
		snap = append([]uint64(nil), v.Versions...)
		if v.Version() != sp.Version() {
			t.Errorf("snapshot version %d != pool version %d", v.Version(), sp.Version())
		}
		for i := range v.Versions {
			if !v.CanDelta(i, snap[i]) {
				t.Errorf("shard %d: fresh window not covered", i)
			}
		}
	})

	want := make(map[int][]Answer)
	for i := 1; i <= 32; i += 3 {
		a := Answer{Task: TaskID(i), Worker: "w1", Option: 1}
		if err := record(sp, a); err != nil {
			t.Fatal(err)
		}
		sh := sp.ShardFor(TaskID(i))
		want[sh] = append(want[sh], a)
	}

	sp.ViewDelta(func(v *DeltaView) {
		for i := range v.Versions {
			got, ok := v.AppendedSince(i, snap[i], nil)
			if !ok {
				t.Errorf("shard %d: window not covered", i)
				continue
			}
			if !reflect.DeepEqual(got, want[i]) {
				t.Errorf("shard %d: delta = %v, want %v", i, got, want[i])
			}
		}
	})
}
