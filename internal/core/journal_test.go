package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"
)

// scriptJournal records the hooks it was called with and, from failAt on,
// refuses them. Each hook first runs check (under the pool's write lock,
// as every hook does), which the tests use to look at the pool mid-mutation.
type scriptJournal struct {
	calls  []string
	failAt int // refuse the failAt-th call and every later one; 0 = never
	check  func()
}

var errDisk = errors.New("disk gone")

func (j *scriptJournal) hook(format string, args ...any) error {
	if j.check != nil {
		j.check()
	}
	if j.failAt > 0 && len(j.calls)+1 >= j.failAt {
		return errDisk
	}
	j.calls = append(j.calls, fmt.Sprintf(format, args...))
	return nil
}

func (j *scriptJournal) Append(_ context.Context, m *Mutation) (uint64, error) {
	pos := uint64(len(j.calls) + 1)
	switch m.Kind {
	case MutAddTask:
		return pos, j.hook("add %d", m.Task.ID)
	case MutAnswers:
		if m.Batch {
			return pos, j.hook("batch %d answers", len(m.Answers))
		}
		return pos, j.hook("answer %d %s", m.Answers[0].Task, m.Answers[0].Worker)
	case MutClose:
		return pos, j.hook("close %d", m.ID)
	case MutLease:
		return pos, j.hook("lease %d %s", m.Leases[0].Task, m.Leases[0].Worker)
	case MutExpire:
		return pos, j.hook("expire %d", len(m.Leases))
	}
	return 0, fmt.Errorf("mutation of kind %d", m.Kind)
}

// Every mutation reaches the journal after it validated and before it is
// applied: inside the hook the pool still shows the state before it.
func TestJournalRunsBetweenValidateAndApply(t *testing.T) {
	j := &scriptJournal{}
	sp := ShardedFrom([]*Pool{NewPool()}, j)
	p := sp.shards[0].pool
	var before [4]int
	j.check = func() { before = [4]int{p.Len(), p.TotalAnswers(), p.ActiveLeases(), len(p.OpenTasks())} }
	expect := func(step string, want [4]int) {
		t.Helper()
		if before != want {
			t.Fatalf("%s: the hook saw {tasks answers leases open} = %v, want the state before the mutation %v", step, before, want)
		}
	}

	id, err := sp.Add(binaryTask(1, 0))
	if err != nil {
		t.Fatal(err)
	}
	expect("add", [4]int{0, 0, 0, 0})
	pick := AssignerFunc(func(*Pool, string) (TaskID, bool) { return id, true })
	if _, ok, err := sp.AssignLease(pick, "w1", time.Unix(100, 0)); !ok || err != nil {
		t.Fatalf("AssignLease: %v %v", ok, err)
	}
	expect("lease", [4]int{1, 0, 0, 1})
	if pos, err := sp.Record(context.Background(), Answer{Task: id, Worker: "w2", Option: 1}, nil); err != nil || pos == 0 {
		t.Fatalf("Record: pos %d, %v", pos, err)
	}
	expect("answer", [4]int{1, 0, 1, 1})
	errs, pos := sp.RecordBatch(0, []Answer{
		{Task: id, Worker: "w3", Option: 0},
		{Task: id, Worker: "w3", Option: 1}, // duplicate inside the batch
		{Task: 99, Worker: "w4", Option: 0}, // unknown task
	}, nil)
	if errs[0] != nil || errs[1] == nil || errs[2] == nil || pos == 0 {
		t.Fatalf("RecordBatch: errs %v, pos %d", errs, pos)
	}
	expect("batch", [4]int{1, 1, 1, 1})
	if exp, err := sp.ExpireLeases(time.Unix(200, 0)); err != nil || len(exp) != 1 {
		t.Fatalf("ExpireLeases: %v, %v", exp, err)
	}
	expect("expire", [4]int{1, 2, 1, 1})
	if err := sp.Close(id); err != nil {
		t.Fatal(err)
	}
	expect("close", [4]int{1, 2, 0, 1})

	want := []string{"add 1", "lease 1 w1", "answer 1 w2", "batch 1 answers", "expire 1", "close 1"}
	if !reflect.DeepEqual(j.calls, want) {
		t.Fatalf("journal saw %q, want %q", j.calls, want)
	}
}

// A mutation the journal refuses comes back wrapped in ErrNotJournaled and
// leaves the pool — tasks, answers, leases, closes, version — untouched.
func TestJournalRefusalAppliesNothing(t *testing.T) {
	j := &scriptJournal{}
	sp := ShardedFrom([]*Pool{NewPool(), NewPool()}, j)
	id, err := sp.Add(binaryTask(1, 0))
	if err != nil {
		t.Fatal(err)
	}
	pick := AssignerFunc(func(p *Pool, _ string) (TaskID, bool) { return id, p.Task(id) != nil })
	if _, ok, err := sp.AssignLease(pick, "holder", time.Unix(100, 0)); !ok || err != nil {
		t.Fatalf("AssignLease: %v %v", ok, err)
	}
	j.failAt = len(j.calls) + 1
	version := sp.Version()

	refused := func(what string, err error) {
		t.Helper()
		if !errors.Is(err, ErrNotJournaled) || !errors.Is(err, errDisk) {
			t.Fatalf("%s: err = %v, want ErrNotJournaled wrapping the journal's error", what, err)
		}
	}
	_, err = sp.Add(binaryTask(2, 0))
	refused("Add", err)
	_, err = sp.Record(context.Background(), Answer{Task: id, Worker: "w", Option: 0}, nil)
	refused("Record", err)
	errs, pos := sp.RecordBatch(sp.ShardFor(id), []Answer{
		{Task: id, Worker: "w", Option: 0},
		{Task: 99, Worker: "w", Option: 0},
	}, nil)
	refused("RecordBatch", errs[0])
	if errors.Is(errs[1], ErrNotJournaled) || errs[1] == nil || pos != 0 {
		t.Fatalf("RecordBatch: the unknown task's error is %v, pos %d; want its own rejection and no position", errs[1], pos)
	}
	refused("Close", sp.Close(id))
	_, ok, err := sp.AssignLease(pick, "late", time.Unix(100, 0))
	refused("AssignLease", err)
	if ok {
		t.Fatal("AssignLease handed out a lease the journal refused")
	}
	exp, err := sp.ExpireLeases(time.Unix(200, 0))
	refused("ExpireLeases", err)
	if len(exp) != 0 {
		t.Fatalf("ExpireLeases reclaimed %v with the journal down", exp)
	}

	if p := flat(sp); p.Len() != 1 || p.TotalAnswers() != 0 || p.Closed(id) || p.ActiveLeases() != 1 ||
		!p.HasLease("holder", id) || sp.Version() != version {
		t.Fatalf("refused mutations left a mark: %d tasks, %d answers, closed %v, %d leases, version %d -> %d",
			p.Len(), p.TotalAnswers(), p.Closed(id), p.ActiveLeases(), version, sp.Version())
	}
}

// Closing a task the pool does not hold is a no-op: nothing is planted in
// the closed set, nothing is journaled, the version stays.
func TestCloseUnknownTaskIsNoop(t *testing.T) {
	p := NewPool()
	if p.Close(7); p.Closed(7) {
		t.Fatal("Pool.Close closed a task that does not exist")
	}
	j := &scriptJournal{}
	sp := ShardedFrom([]*Pool{p}, j)
	v := sp.Version()
	if err := sp.Close(7); err != nil {
		t.Fatal(err)
	}
	if len(j.calls) != 0 || sp.Version() != v || p.Closed(7) {
		t.Fatalf("closing an unknown task journaled %q, version %d -> %d, closed %v", j.calls, v, sp.Version(), p.Closed(7))
	}
}

// Closing a task twice journals one task_closed and bumps the version once.
func TestCloseClosedTaskIsNoop(t *testing.T) {
	j := &scriptJournal{}
	sp := ShardedFrom([]*Pool{NewPool()}, j)
	id, err := sp.Add(binaryTask(1, 0))
	if err != nil {
		t.Fatal(err)
	}
	if err := sp.Close(id); err != nil {
		t.Fatal(err)
	}
	v, n := sp.Version(), len(j.calls)
	if err := sp.Close(id); err != nil {
		t.Fatal(err)
	}
	if len(j.calls) != n || sp.Version() != v || !flat(sp).Closed(id) {
		t.Fatalf("second close journaled %q, version %d -> %d", j.calls[n:], v, sp.Version())
	}
}
