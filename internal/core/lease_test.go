package core

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestLeaseLifecycle(t *testing.T) {
	p := NewPool()
	a := p.MustAdd(binaryTask(1, 1))
	b := p.MustAdd(binaryTask(2, 0))
	t0 := time.Unix(1000, 0)

	if err := p.Lease(a, "w1", t0.Add(time.Minute)); err != nil {
		t.Fatal(err)
	}
	if !p.HasLease("w1", a) || p.LeaseCount(a) != 1 || p.ActiveLeases() != 1 {
		t.Fatalf("lease not recorded: has=%v count=%d active=%d",
			p.HasLease("w1", a), p.LeaseCount(a), p.ActiveLeases())
	}
	// InFlight counts the lease; AnswerCount must not (redundancy targets
	// count only committed answers).
	if p.InFlight(a) != 1 || p.AnswerCount(a) != 0 {
		t.Fatalf("in-flight = %d answers = %d, want 1, 0", p.InFlight(a), p.AnswerCount(a))
	}
	if p.InFlight(b) != 0 {
		t.Fatalf("unleased task in-flight = %d", p.InFlight(b))
	}

	// The submission consumes the lease.
	if err := p.Record(Answer{Task: a, Worker: "w1", Option: 1}); err != nil {
		t.Fatal(err)
	}
	if p.HasLease("w1", a) || p.ActiveLeases() != 0 {
		t.Fatal("submission did not consume the lease")
	}
	if p.InFlight(a) != 1 || p.AnswerCount(a) != 1 {
		t.Fatalf("after submit: in-flight = %d answers = %d, want 1, 1", p.InFlight(a), p.AnswerCount(a))
	}
}

func TestLeaseExpirySweep(t *testing.T) {
	p := NewPool()
	a := p.MustAdd(binaryTask(1, 1))
	b := p.MustAdd(binaryTask(2, 0))
	t0 := time.Unix(1000, 0)

	if err := p.Lease(a, "w1", t0.Add(10*time.Second)); err != nil {
		t.Fatal(err)
	}
	if err := p.Lease(a, "w2", t0.Add(30*time.Second)); err != nil {
		t.Fatal(err)
	}
	if err := p.Lease(b, "w1", t0.Add(10*time.Second)); err != nil {
		t.Fatal(err)
	}

	// Nothing expired yet.
	if exp := p.ExpireLeases(t0.Add(5 * time.Second)); len(exp) != 0 {
		t.Fatalf("premature expiry: %v", exp)
	}
	// Two of the three leases are past deadline at +10s (inclusive).
	exp := p.ExpireLeases(t0.Add(10 * time.Second))
	if len(exp) != 2 {
		t.Fatalf("expired %d leases, want 2: %v", len(exp), exp)
	}
	// Deterministic (task, worker) order.
	if exp[0].Task != a || exp[0].Worker != "w1" || exp[1].Task != b || exp[1].Worker != "w1" {
		t.Fatalf("expiry order = %v", exp)
	}
	if p.ActiveLeases() != 1 || !p.HasLease("w2", a) {
		t.Fatalf("surviving leases wrong: active=%d", p.ActiveLeases())
	}
	// The reclaimed slot makes the task assignable again: InFlight dropped.
	if p.InFlight(a) != 1 || p.InFlight(b) != 0 {
		t.Fatalf("in-flight after sweep: a=%d b=%d", p.InFlight(a), p.InFlight(b))
	}
}

func TestLeaseReLeaseExtendsDeadline(t *testing.T) {
	p := NewPool()
	a := p.MustAdd(binaryTask(1, 1))
	t0 := time.Unix(1000, 0)

	if err := p.Lease(a, "w1", t0.Add(10*time.Second)); err != nil {
		t.Fatal(err)
	}
	// Re-fetching the same task extends the lease; the old deadline no
	// longer expires it.
	if err := p.Lease(a, "w1", t0.Add(60*time.Second)); err != nil {
		t.Fatal(err)
	}
	if p.LeaseCount(a) != 1 {
		t.Fatalf("re-lease duplicated: count = %d", p.LeaseCount(a))
	}
	if exp := p.ExpireLeases(t0.Add(30 * time.Second)); len(exp) != 0 {
		t.Fatalf("extended lease expired early: %v", exp)
	}
	if exp := p.ExpireLeases(t0.Add(61 * time.Second)); len(exp) != 1 {
		t.Fatalf("extended lease did not expire: %v", exp)
	}
}

func TestLeaseValidation(t *testing.T) {
	p := NewPool()
	a := p.MustAdd(binaryTask(1, 1))
	now := time.Unix(1000, 0)
	if err := p.Lease(999, "w1", now); err == nil {
		t.Fatal("lease on unknown task should fail")
	}
	if err := p.Lease(a, "", now); err == nil {
		t.Fatal("lease without worker should fail")
	}
	p.Close(a)
	if err := p.Lease(a, "w1", now); err == nil {
		t.Fatal("lease on closed task should fail")
	}
}

func TestCloseDropsLeases(t *testing.T) {
	p := NewPool()
	a := p.MustAdd(binaryTask(1, 1))
	if err := p.Lease(a, "w1", time.Unix(2000, 0)); err != nil {
		t.Fatal(err)
	}
	p.Close(a)
	if p.ActiveLeases() != 0 {
		t.Fatal("closing a task must drop its leases")
	}
}

func TestConcurrentPoolAssignLease(t *testing.T) {
	p := NewPool()
	for i := 0; i < 4; i++ {
		p.MustAdd(binaryTask(TaskID(i+1), 1))
	}
	cp := ShardedFrom([]*Pool{p}, nil)
	deadline := time.Now().Add(time.Hour)
	v0 := cp.Version()

	// fewestInFlight mirrors the serving assigner: balance on in-flight.
	fewestInFlight := AssignerFunc(func(p *Pool, worker string) (TaskID, bool) {
		el := p.EligibleFor(worker)
		if len(el) == 0 {
			return 0, false
		}
		best := el[0]
		for _, id := range el[1:] {
			if p.InFlight(id) < p.InFlight(best) {
				best = id
			}
		}
		return best, true
	})

	// One worker leasing repeatedly walks the whole pool: each lease
	// raises that task's in-flight count, steering the next assignment to
	// an unleased task.
	seen := map[TaskID]bool{}
	for i := 0; i < 4; i++ {
		id, ok, _ := cp.AssignLease(fewestInFlight, "w1", deadline)
		if !ok {
			t.Fatalf("assignment %d failed", i)
		}
		if seen[id] {
			t.Fatalf("task %d leased twice before others were covered", id)
		}
		seen[id] = true
	}
	if n := flat(cp).ActiveLeases(); n != 4 {
		t.Fatalf("active leases = %d, want 4", n)
	}
	// Lease bookkeeping must not bump the version: the inference cache
	// keys on it and assignments never change the answer set.
	if cp.Version() != v0 {
		t.Fatalf("lease ops bumped version %d -> %d", v0, cp.Version())
	}
	if exp, _ := cp.ExpireLeases(time.Now().Add(2 * time.Hour)); len(exp) != 4 {
		t.Fatalf("expired %d, want 4", len(exp))
	}
	if cp.Version() != v0 {
		t.Fatal("expiry bumped version")
	}
}

func TestConcurrentPoolLeaseRace(t *testing.T) {
	p := NewPool()
	for i := 0; i < 8; i++ {
		p.MustAdd(binaryTask(TaskID(i+1), 1))
	}
	cp := ShardedFrom([]*Pool{p}, nil)
	deadline := time.Now().Add(time.Hour)

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			w := fmt.Sprintf("w%d", g)
			for i := 0; i < 8; i++ {
				if id, ok, _ := cp.AssignLease(firstOpen, w, deadline); ok {
					_ = record(cp, Answer{Task: id, Worker: w, Option: 1})
				}
				cp.ExpireLeases(time.Now())
			}
		}(g)
	}
	wg.Wait()
	// Every lease was either consumed by its Record or still outstanding;
	// the sweep found none expired (deadline is an hour out).
	if got := flat(cp).ActiveLeases(); got != 0 {
		t.Fatalf("unconsumed leases after all submissions: %d", got)
	}
}

// TestPlatformStepRefundsFailedRecord is the regression test for the
// charge-before-record leak in Platform.Step: an answer the pool rejects
// must refund its reserved budget unit.
func TestPlatformStepRefundsFailedRecord(t *testing.T) {
	pool := NewPool()
	id := pool.MustAdd(binaryTask(1, 1))
	// The worker has already answered; a broken assigner hands the task
	// out again, so Record fails after the budget unit was reserved.
	if err := pool.Record(Answer{Task: id, Worker: "w1", Option: 1}); err != nil {
		t.Fatal(err)
	}
	budget := NewBudget(10)
	spent0 := budget.Spent()
	pl := NewPlatform(pool, []Worker{&scriptedWorker{id: "w1", option: 0}}, budget)
	badAssigner := AssignerFunc(func(p *Pool, worker string) (TaskID, bool) { return id, true })

	if _, err := pl.Step(badAssigner); err == nil {
		t.Fatal("Step should surface the rejected record")
	}
	if got := budget.Spent(); got != spent0 {
		t.Fatalf("failed record burned budget: spent = %v, want %v", got, spent0)
	}
}

// TestPlatformStepAbandonRefunds: a worker that abandons its assignment
// produces no answer and costs nothing.
func TestPlatformStepAbandonRefunds(t *testing.T) {
	pool := NewPool()
	pool.MustAdd(binaryTask(1, 1))
	budget := NewBudget(10)
	pl := NewPlatform(pool, []Worker{&abandoningWorker{id: "gone"}}, budget)

	n, err := pl.Step(firstOpen)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("abandoned assignment counted as collected: %d", n)
	}
	if budget.Spent() != 0 {
		t.Fatalf("abandoned assignment burned budget: %v", budget.Spent())
	}
	if pool.TotalAnswers() != 0 {
		t.Fatal("abandoned assignment recorded an answer")
	}
}

// abandoningWorker claims assignments and never submits.
type abandoningWorker struct{ id string }

func (w *abandoningWorker) ID() string            { return w.id }
func (w *abandoningWorker) Work(t *Task) Response { return Response{Option: -1, Abandon: true} }

// TestCollectRedundantWithDropouts: a population where 30% of workers
// abandon every assignment still reaches redundancy-k on every task within
// budget — the honest majority carries the run and abandoned slots cost
// nothing.
func TestCollectRedundantWithDropouts(t *testing.T) {
	pool := NewPool()
	const tasks, k = 20, 3
	for i := 0; i < tasks; i++ {
		pool.MustAdd(binaryTask(TaskID(i+1), 1))
	}
	workers := []Worker{
		&truthfulWorker{id: "h1"}, &truthfulWorker{id: "h2"}, &truthfulWorker{id: "h3"},
		&truthfulWorker{id: "h4"}, &truthfulWorker{id: "h5"}, &truthfulWorker{id: "h6"},
		&truthfulWorker{id: "h7"},
		&abandoningWorker{id: "d1"}, &abandoningWorker{id: "d2"}, &abandoningWorker{id: "d3"},
	}
	// Balance assignments like the serving layer does, so overshoot past k
	// stays small.
	fewest := AssignerFunc(func(p *Pool, worker string) (TaskID, bool) {
		el := p.EligibleFor(worker)
		if len(el) == 0 {
			return 0, false
		}
		best := el[0]
		for _, id := range el[1:] {
			if p.InFlight(id) < p.InFlight(best) {
				best = id
			}
		}
		return best, true
	})
	const budgetTotal = tasks*k + 40 // headroom for same-round overshoot
	budget := NewBudget(budgetTotal)
	pl := NewPlatform(pool, workers, budget)

	res, err := pl.CollectRedundant(fewest, k)
	if err != nil && !errors.Is(err, ErrBudgetExhausted) {
		t.Fatal(err)
	}
	for _, id := range pool.TaskIDs() {
		if pool.AnswerCount(id) < k {
			t.Fatalf("task %d has %d answers, want >= %d", id, pool.AnswerCount(id), k)
		}
	}
	if spent := budget.Spent(); spent != int64(res.AnswersCollected) {
		t.Fatalf("spent %d != answers %d: dropouts were charged", spent, res.AnswersCollected)
	}
	if budget.Spent() > budgetTotal {
		t.Fatalf("spent %d blew the budget", budget.Spent())
	}
}
