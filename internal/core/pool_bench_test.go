package core

import (
	"fmt"
	"testing"
	"time"
	"unsafe"
)

// The pool at worker_loop's shape (bench/workloads.json): 1,000 tasks,
// answered by 512 workers, about 15 answers per task by the end of a run.
const (
	benchTasks          = 1000
	benchWorkers        = 512
	benchAnswersPerTask = 15
)

var benchWorkerIDs = func() []string {
	ids := make([]string, benchWorkers)
	for i := range ids {
		ids[i] = fmt.Sprintf("worker-%03d", i)
	}
	return ids
}()

// benchAnswer is the j-th answer to task i of a benchmark pool: j < 512
// answers to one task come from distinct workers (37 is odd, so j ↦ 37j
// is one-to-one mod 512).
func benchAnswer(i, j int) Answer {
	return Answer{Task: TaskID(i + 1), Worker: benchWorkerIDs[(7*i+37*j)%benchWorkers], Option: (i + j) % 2}
}

// benchPool returns a pool of benchTasks tasks with the first perTask
// answers of each recorded, round-robin over the tasks.
func benchPool(b testing.TB, perTask int) *Pool {
	b.Helper()
	p := NewPool()
	for i := 0; i < benchTasks; i++ {
		p.MustAdd(&Task{ID: TaskID(i + 1), Kind: SingleChoice, Question: "q", Options: []string{"no", "yes"}})
	}
	for j := 0; j < perTask; j++ {
		for i := 0; i < benchTasks; i++ {
			if err := p.Record(benchAnswer(i, j)); err != nil {
				b.Fatal(err)
			}
		}
	}
	return p
}

// BenchmarkPoolRecord measures Record as the live path meets it: tasks
// filling from no answers to benchAnswersPerTask, round-robin, each answer
// checked against the platform rules and stored. One op is one answer; a
// fresh pool is built, off the clock, every benchTasks·benchAnswersPerTask
// answers.
func BenchmarkPoolRecord(b *testing.B) {
	const round = benchTasks * benchAnswersPerTask
	var p *Pool
	b.ReportAllocs()
	for n := 0; n < b.N; n++ {
		k := n % round
		if k == 0 {
			b.StopTimer()
			p = benchPool(b, 0)
			b.StartTimer()
		}
		if err := p.Record(benchAnswer(k%benchTasks, k/benchTasks)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPoolEligibleFor measures the scan every assignment starts with:
// the open tasks one worker has not answered, on a pool holding
// benchAnswersPerTask answers per task.
func BenchmarkPoolEligibleFor(b *testing.B) {
	p := benchPool(b, benchAnswersPerTask)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if len(p.EligibleFor(benchWorkerIDs[n%benchWorkers])) == 0 {
			b.Fatal("no eligible task")
		}
	}
}

// BenchmarkPoolLeastInFlight measures FewestAnswers' whole choice on the
// same pool: one pass that reads a task's voters only when the task
// would beat the best so far, and allocates nothing.
func BenchmarkPoolLeastInFlight(b *testing.B) {
	p := benchPool(b, benchAnswersPerTask)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if _, ok := p.LeastInFlight(benchWorkerIDs[n%benchWorkers]); !ok {
			b.Fatal("no eligible task")
		}
	}
}

// BenchmarkWorkerCount measures /api/stats' worker count on the
// recovery_boot shape (bench/workloads.json): 5,000 tasks on 2 shards,
// 100,000 answers from 20 workers, each task answered once by each. One
// op is ViewAll plus WorkerCount, all of it under every shard's read lock.
func BenchmarkWorkerCount(b *testing.B) {
	const tasks, answers = 5000, 100000
	pools := []*Pool{NewPool(), NewPool()}
	for id := TaskID(1); id <= tasks; id++ {
		pools[ShardIndex(id, len(pools))].MustAdd(&Task{ID: id, Kind: SingleChoice, Question: "q", Options: []string{"no", "yes"}})
	}
	for k := 0; k < answers; k++ {
		id := TaskID(k%tasks + 1)
		if err := pools[ShardIndex(id, len(pools))].Record(Answer{Task: id, Worker: fmt.Sprintf("w%d", k/tasks), Option: k % 2}); err != nil {
			b.Fatal(err)
		}
	}
	sp := ShardedFrom(pools, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		sp.ViewAll(func(ps []*Pool) {
			if WorkerCount(ps) != answers/tasks {
				b.Fatal("wrong worker count")
			}
		})
	}
}

// TestTaskEntryFitsACacheLine keeps a task's entry within one 64-byte
// cache line: LeastInFlight reads every open entry, and at 80 bytes (with
// the voter counts inside the entry) BenchmarkPoolLeastInFlight ran about
// 10 % slower.
func TestTaskEntryFitsACacheLine(t *testing.T) {
	if n := unsafe.Sizeof(taskEntry{}); n > 64 {
		t.Fatalf("taskEntry takes %d bytes, want at most 64", n)
	}
}

// TestReserveCarvesTaskArrays: after Reserve, Grow cuts each task's
// answer and voter arrays from the reserved ones with no spare capacity,
// one task's append past its part reallocates that task alone, a task the
// rest cannot hold gets an array of its own, and the pool keeps no
// pointer into reserved arrays all carved.
func TestReserveCarvesTaskArrays(t *testing.T) {
	p := NewPool()
	p.Reserve(3, 10)
	for id := TaskID(1); id <= 3; id++ {
		p.MustAdd(&Task{ID: id, Kind: Collection, Question: "q"})
	}
	for i, n := range []int{4, 6, 5} { // the third does not fit
		id := TaskID(i + 1)
		p.Grow(id, n)
		for j := 0; j < n; j++ {
			if err := p.Record(Answer{Task: id, Worker: fmt.Sprintf("w%d", j)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	first := &p.Answers(1)[:4][0]
	if p.answerSlab != nil || p.voterSlab != nil || len(p.entrySlab) != 0 {
		t.Fatalf("reserved arrays left: %d answers, %d voters, %d entries", len(p.answerSlab), len(p.voterSlab), len(p.entrySlab))
	}
	for id := TaskID(1); id <= 3; id++ {
		e := p.tasks[id]
		if cap(e.answers) != len(e.answers) || cap(e.voters) != len(e.voters) {
			t.Fatalf("task %d: %d answers in capacity %d, %d voters in capacity %d",
				id, len(e.answers), cap(e.answers), len(e.voters), cap(e.voters))
		}
	}
	if err := p.Record(Answer{Task: 1, Worker: "late"}); err != nil {
		t.Fatal(err)
	}
	if got := p.Answers(1); &got[0] == first || len(got) != 5 || got[4].Worker != "late" {
		t.Fatalf("task 1 after an answer past its part: %v", got)
	}
	if got := p.Answers(2); len(got) != 6 || got[5].Worker != "w5" {
		t.Fatalf("task 2 changed with task 1's append: %v", got)
	}
}

// TestLeastInFlightAllocs guards the assignment scan against allocating:
// on an unanswered pool (the scan stops at the first task), on an
// answered one, and with outstanding leases. Under the race detector the
// scan still runs but the count is not checked (see raceEnabled).
func TestLeastInFlightAllocs(t *testing.T) {
	leased := benchPool(t, benchAnswersPerTask)
	for i := 1; i <= 10; i++ {
		if err := leased.Lease(TaskID(i), "leaseholder", time.Unix(1e9, 0)); err != nil {
			t.Fatal(err)
		}
	}
	pools := map[string]*Pool{
		"unanswered": benchPool(t, 0),
		"answered":   benchPool(t, benchAnswersPerTask),
		"leased":     leased,
	}
	for name, p := range pools {
		allocs := testing.AllocsPerRun(100, func() {
			if _, ok := p.LeastInFlight(benchWorkerIDs[0]); !ok {
				t.Fatal("no eligible task")
			}
		})
		if allocs != 0 && !raceEnabled {
			t.Fatalf("%s pool: LeastInFlight allocates %v times per call, want 0", name, allocs)
		}
	}
}
