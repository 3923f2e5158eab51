package core

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"
)

func multiTask(id TaskID) *Task {
	return &Task{ID: id, Kind: MultiChoice, Options: []string{"a", "b", "c"}, GroundTruth: -1}
}

// record is Record with no trace and no charge.
func record(p interface {
	Record(context.Context, Answer, *bool) (uint64, error)
}, a Answer) error {
	_, err := p.Record(context.Background(), a, nil)
	return err
}

// TestRecordResubmissionCap is the regression test for the budget-drain
// bug: repeatable kinds used to accept unlimited resubmissions from one
// worker, so a retrying client could charge the budget forever on a
// single task. Now they stop at MaxRepeatAnswers.
func TestRecordResubmissionCap(t *testing.T) {
	for _, kind := range []TaskKind{MultiChoice, Collection} {
		p := NewPool()
		task := &Task{ID: 1, Kind: kind, GroundTruth: -1}
		if kind == MultiChoice {
			task.Options = []string{"a", "b", "c"}
		}
		id := p.MustAdd(task)
		for i := 0; i < MaxRepeatAnswers; i++ {
			if err := p.Record(Answer{Task: id, Worker: "w", Option: i % 3, Text: fmt.Sprintf("t%d", i)}); err != nil {
				t.Fatalf("%v: submission %d rejected: %v", kind, i+1, err)
			}
		}
		if err := p.Record(Answer{Task: id, Worker: "w", Option: 0}); err == nil {
			t.Fatalf("%v: submission %d accepted; want resubmission-cap rejection", kind, MaxRepeatAnswers+1)
		}
		if got := p.AnswerCount(id); got != MaxRepeatAnswers {
			t.Fatalf("%v: %d answers recorded, want %d", kind, got, MaxRepeatAnswers)
		}
		// A different worker is unaffected by w's cap.
		if err := p.Record(Answer{Task: id, Worker: "other", Option: 1}); err != nil {
			t.Fatalf("%v: fresh worker rejected: %v", kind, err)
		}
	}
}

func TestShardIndexDeterministicAndInRange(t *testing.T) {
	for n := 1; n <= 9; n++ {
		counts := make([]int, n)
		for id := TaskID(0); id < 1000; id++ {
			i := ShardIndex(id, n)
			if i != ShardIndex(id, n) {
				t.Fatalf("ShardIndex(%d,%d) not deterministic", id, n)
			}
			if i < 0 || i >= n {
				t.Fatalf("ShardIndex(%d,%d) = %d out of range", id, n, i)
			}
			counts[i]++
		}
		// Sequential IDs should spread roughly evenly, not cluster.
		for i, c := range counts {
			if n > 1 && (c < 1000/n/2 || c > 1000/n*2) {
				t.Fatalf("shard %d/%d got %d of 1000 sequential ids; want near %d", i, n, c, 1000/n)
			}
		}
	}
}

// TestShardedPoolMatchesUnsharded drives the same operation sequence
// through 1-shard and N-shard pools and requires identical observable
// state — the core of the -shards=N ≡ -shards=1 contract.
func TestShardedPoolMatchesUnsharded(t *testing.T) {
	build := func(n int) *Pool {
		sp := newSharded(n)
		for i := 0; i < 30; i++ {
			task := binaryTask(0, i%2)
			id, err := sp.Add(task)
			if err != nil {
				t.Fatal(err)
			}
			for w := 0; w <= i%3; w++ {
				if err := record(sp, Answer{Task: id, Worker: fmt.Sprintf("w%d", w), Option: i % 2}); err != nil {
					t.Fatal(err)
				}
			}
			if i%5 == 0 {
				sp.Close(id)
			}
		}
		return flat(sp)
	}
	ref := build(1)
	for _, n := range []int{2, 4, 8} {
		sp := build(n)
		if sp.Len() != ref.Len() || sp.TotalAnswers() != ref.TotalAnswers() {
			t.Fatalf("n=%d: shape diverges: %d/%d tasks, %d/%d answers",
				n, sp.Len(), ref.Len(), sp.TotalAnswers(), ref.TotalAnswers())
		}
		if !reflect.DeepEqual(ref.Workers(), sp.Workers()) {
			t.Fatalf("n=%d: workers diverge", n)
		}
		refIDs := ref.TaskIDs()
		ids := sp.TaskIDs()
		if len(ids) != len(refIDs) {
			t.Fatalf("n=%d: id count diverges", n)
		}
		for _, id := range refIDs {
			if !reflect.DeepEqual(ref.Answers(id), sp.Answers(id)) {
				t.Fatalf("n=%d: task %d answers diverge", n, id)
			}
			if ref.Closed(id) != sp.Closed(id) {
				t.Fatalf("n=%d: task %d closed flag diverges", n, id)
			}
			if ref.OptionVotes(id) != nil && !reflect.DeepEqual(ref.OptionVotes(id), sp.OptionVotes(id)) {
				t.Fatalf("n=%d: task %d votes diverge", n, id)
			}
		}
	}
}

func TestShardedPoolAssignLease(t *testing.T) {
	sp := newSharded(4)
	var ids []TaskID
	for i := 0; i < 12; i++ {
		id, err := sp.Add(binaryTask(0, 0))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	deadline := time.Now().Add(time.Minute)
	got := make(map[TaskID]bool)
	// One worker can be assigned every task exactly once across shards.
	for range ids {
		id, ok, _ := sp.AssignLease(firstOpen, "w", deadline)
		if !ok {
			t.Fatalf("assignment dried up after %d tasks, want %d", len(got), len(ids))
		}
		if got[id] {
			t.Fatalf("task %d assigned twice", id)
		}
		got[id] = true
		if !flat(sp).HasLease("w", id) {
			t.Fatalf("no lease recorded for assigned task %d", id)
		}
		if err := record(sp, Answer{Task: id, Worker: "w", Option: 0}); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok, _ := sp.AssignLease(firstOpen, "w", deadline); ok {
		t.Fatal("worker assigned a task it already answered")
	}
	if n := flat(sp).ActiveLeases(); n != 0 {
		t.Fatalf("%d leases outstanding after all answers consumed them", n)
	}
}

func TestShardedPoolExpireLeasesDeterministic(t *testing.T) {
	sp := newSharded(4)
	deadline := time.Now().Add(time.Millisecond)
	for i := 0; i < 10; i++ {
		id, err := sp.Add(binaryTask(0, 0))
		if err != nil {
			t.Fatal(err)
		}
		if _, ok, _ := sp.AssignLease(firstOpen, fmt.Sprintf("w%d", i), deadline); !ok {
			t.Fatalf("assignment %d failed", i)
		}
		_ = id
	}
	exp, _ := sp.ExpireLeases(time.Now().Add(time.Hour))
	if len(exp) != 10 {
		t.Fatalf("expired %d leases, want 10", len(exp))
	}
	for i := 1; i < len(exp); i++ {
		if exp[i].Task < exp[i-1].Task {
			t.Fatalf("expired leases not in task order: %v", exp)
		}
	}
}

func TestShardedPoolVersionSumsShards(t *testing.T) {
	sp := newSharded(4)
	v0 := sp.Version()
	id, err := sp.Add(binaryTask(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	v1 := sp.Version()
	if v1 <= v0 {
		t.Fatalf("Add did not advance version: %d -> %d", v0, v1)
	}
	if err := record(sp, Answer{Task: id, Worker: "w", Option: 0}); err != nil {
		t.Fatal(err)
	}
	if sp.Version() <= v1 {
		t.Fatal("Record did not advance version")
	}
	// A rejected answer changes nothing a cache could have derived from.
	v2 := sp.Version()
	if err := record(sp, Answer{Task: id, Worker: "w", Option: 1}); err == nil {
		t.Fatal("duplicate answer accepted")
	}
	if sp.Version() != v2 {
		t.Fatal("a rejected answer advanced the version")
	}
}

func TestShardedPoolRecordBatch(t *testing.T) {
	sp := newSharded(4)
	id1, _ := sp.Add(binaryTask(0, 0))
	id2, _ := sp.Add(binaryTask(0, 0))
	shard := sp.ShardFor(id1)
	batch := []Answer{
		{Task: id1, Worker: "w", Option: 0},
		{Task: id1, Worker: "w", Option: 1}, // duplicate: rejected
		{Task: id1, Worker: "x", Option: 0},
	}
	errs, _ := sp.RecordBatch(shard, batch, nil)
	if errs[0] != nil || errs[2] != nil {
		t.Fatalf("valid batch items rejected: %v", errs)
	}
	if errs[1] == nil {
		t.Fatal("duplicate answer accepted in batch")
	}
	if sp.AnswerCount(id1) != 2 {
		t.Fatalf("answer count = %d, want 2", sp.AnswerCount(id1))
	}
	if sp.AnswerCount(id2) != 0 {
		t.Fatalf("unrelated task gained answers: %d", sp.AnswerCount(id2))
	}
}

func TestShardedPoolViewAllConsistent(t *testing.T) {
	sp := newSharded(4)
	var ids []TaskID
	for i := 0; i < 8; i++ {
		id, err := sp.Add(binaryTask(0, 0))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		i := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			id := ids[i%8]
			_ = record(sp, Answer{Task: id, Worker: fmt.Sprintf("bg%d", i), Option: 0})
			i++
		}
	}()
	for i := 0; i < 50; i++ {
		before := sp.Version()
		var total int
		var inView uint64
		sp.ViewAll(func(pools []*Pool) {
			for _, p := range pools {
				total += p.TotalAnswers()
			}
			inView = sp.Version()
		})
		_ = before
		// Version observed inside the view must correspond to a consistent
		// cut: re-reading it inside the same view yields the same value.
		var again uint64
		sp.ViewAll(func(pools []*Pool) { again = sp.Version() })
		if inView > again {
			t.Fatalf("version went backwards across views: %d then %d", inView, again)
		}
	}
	close(stop)
	wg.Wait()
}

func TestShardedPoolSingleShardDelegates(t *testing.T) {
	p := NewPool()
	for i := 0; i < 5; i++ {
		p.MustAdd(binaryTask(TaskID(i+1), 0))
	}
	sp := ShardedFrom([]*Pool{p}, nil)
	// A single shard serves the caller's pool itself, not a copy of it.
	sp.ViewAll(func(pools []*Pool) {
		if len(pools) != 1 || pools[0] != p {
			t.Fatalf("single-shard view = %v, want the wrapped pool", pools)
		}
	})
	if ids := flat(sp).TaskIDs(); !reflect.DeepEqual(ids, []TaskID{1, 2, 3, 4, 5}) {
		t.Fatalf("single-shard TaskIDs = %v", ids)
	}
	if sp.NumShards() != 1 {
		t.Fatalf("NumShards = %d", sp.NumShards())
	}
}

// TestShardedPoolAddSameIDConcurrently: Adds racing on one explicit ID
// settle on distinct IDs, each task on the shard its ID hashes to. The ID
// used to be chosen under the pool's add lock but inserted after it, so
// two racers could both keep the ID; the shard then re-assigned the loser
// from its own counter, onto an ID the pool handed out again.
func TestShardedPoolAddSameIDConcurrently(t *testing.T) {
	const shards, racers = 4, 64
	for it := 0; it < 2000; it++ {
		sp := newSharded(shards)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < racers; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				if _, err := sp.Add(binaryTask(5, 0)); err != nil {
					t.Error(err)
				}
			}()
		}
		close(start)
		wg.Wait()
		seen := map[TaskID]bool{}
		sp.ViewAll(func(pools []*Pool) {
			for i, p := range pools {
				for _, id := range p.TaskIDs() {
					if seen[id] {
						t.Errorf("iteration %d: two tasks share ID %d", it, id)
					}
					seen[id] = true
					if ShardIndex(id, shards) != i {
						t.Errorf("iteration %d: task %d sits on shard %d, ShardIndex says %d", it, id, i, ShardIndex(id, shards))
					}
				}
			}
		})
		if len(seen) != racers {
			t.Errorf("iteration %d: %d distinct tasks after %d Adds", it, len(seen), racers)
		}
		if t.Failed() {
			t.FailNow()
		}
	}
}

// newSharded returns an empty, unjournaled pool of n shards.
func newSharded(n int) *ShardedPool {
	parts := make([]*Pool, n)
	for i := range parts {
		parts[i] = NewPool()
	}
	return ShardedFrom(parts, nil)
}

// flat copies sp into one unlocked Pool under ViewAll — tasks in ID order
// with their answers, leases and closes — so a test reads the served state
// through the Pool API.
func flat(sp *ShardedPool) *Pool {
	out := NewPool()
	sp.ViewAll(func(pools []*Pool) {
		ids := TaskIDsOf(pools)
		for _, id := range ids {
			p := pools[ShardIndex(id, len(pools))]
			task := *p.Task(id)
			out.MustAdd(&task)
			for _, a := range p.Answers(id) {
				if err := out.Record(a); err != nil {
					panic(err)
				}
			}
		}
		for _, l := range LeasesOf(pools) {
			if err := out.Lease(l.Task, l.Worker, l.Deadline); err != nil {
				panic(err)
			}
		}
		for _, id := range ids {
			if pools[ShardIndex(id, len(pools))].Closed(id) {
				out.Close(id)
			}
		}
	})
	return out
}
