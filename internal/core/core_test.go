package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// scriptedWorker answers every choice task with a fixed option and every
// text task with a fixed string.
type scriptedWorker struct {
	id      string
	option  int
	text    string
	latency float64
}

func (w *scriptedWorker) ID() string { return w.id }

func (w *scriptedWorker) Work(t *Task) Response {
	return Response{Option: w.option, Text: w.text, Latency: w.latency}
}

// truthfulWorker answers with the task's planted ground truth.
type truthfulWorker struct{ id string }

func (w *truthfulWorker) ID() string { return w.id }

func (w *truthfulWorker) Work(t *Task) Response {
	return Response{Option: t.GroundTruth, Text: t.GroundTruthText, Score: t.GroundTruthScore, Latency: 1}
}

func binaryTask(id TaskID, truth int) *Task {
	return &Task{ID: id, Kind: SingleChoice, Options: []string{"no", "yes"}, GroundTruth: truth}
}

// firstOpen assigns the first eligible open task.
var firstOpen = AssignerFunc(func(p *Pool, worker string) (TaskID, bool) {
	el := p.EligibleFor(worker)
	if len(el) == 0 {
		return 0, false
	}
	return el[0], true
})

func TestTaskValidate(t *testing.T) {
	cases := []struct {
		name string
		task Task
		ok   bool
	}{
		{"valid single", *binaryTask(1, 1), true},
		{"one option", Task{Kind: SingleChoice, Options: []string{"a"}, GroundTruth: 0}, false},
		{"truth out of range", Task{Kind: SingleChoice, Options: []string{"a", "b"}, GroundTruth: 5}, false},
		{"truth unset ok", Task{Kind: SingleChoice, Options: []string{"a", "b"}, GroundTruth: -1}, true},
		{"pairwise needs two", Task{Kind: PairwiseComparison, Options: []string{"a", "b", "c"}}, false},
		{"pairwise ok", Task{Kind: PairwiseComparison, Options: []string{"a", "b"}, GroundTruth: 0}, true},
		{"fillin ok", Task{Kind: FillIn, GroundTruthText: "x"}, true},
		{"difficulty range", Task{Kind: FillIn, Difficulty: 1.5}, false},
		{"negative difficulty", Task{Kind: FillIn, Difficulty: -0.1}, false},
	}
	for _, c := range cases {
		err := c.task.Validate()
		if (err == nil) != c.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

func TestTaskKindString(t *testing.T) {
	kinds := []TaskKind{SingleChoice, MultiChoice, FillIn, Collection, PairwiseComparison, Rating}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "" || seen[s] {
			t.Fatalf("kind %d has bad or duplicate name %q", int(k), s)
		}
		seen[s] = true
	}
}

func TestBudgetChargeAndExhaustion(t *testing.T) {
	b := NewBudget(3)
	if b.Remaining() != 3 {
		t.Fatalf("a fresh budget of 3 has %d remaining", b.Remaining())
	}
	for i := 0; i < 3; i++ {
		if err := b.Charge(1); err != nil {
			t.Fatalf("charge %d failed: %v", i, err)
		}
	}
	err := b.Charge(1)
	if !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("expected ErrBudgetExhausted, got %v", err)
	}
	if b.Spent() != 3 {
		t.Fatalf("failed charge should not apply: spent = %v", b.Spent())
	}
	if b.Remaining() != 0 {
		t.Fatalf("Remaining = %v", b.Remaining())
	}
	if err := b.Charge(-1); err == nil {
		t.Fatal("negative charge should fail")
	}
}

func TestBudgetUnlimited(t *testing.T) {
	b := Unlimited()
	if b.Remaining() != -1 {
		t.Fatalf("unlimited budget reports %d remaining", b.Remaining())
	}
	for i := 0; i < 1000; i++ {
		if err := b.Charge(10); err != nil {
			t.Fatal(err)
		}
	}
	if !b.TryCharge(1e18) {
		t.Fatal("unlimited budget should afford anything")
	}
}

func TestPoolAddAssignsIDs(t *testing.T) {
	p := NewPool()
	id1 := p.MustAdd(&Task{Kind: FillIn})
	id2 := p.MustAdd(&Task{Kind: FillIn})
	if id1 == id2 {
		t.Fatalf("pool reused id %d", id1)
	}
	id5, _ := p.Add(&Task{ID: 50, Kind: FillIn})
	if id5 != 50 {
		t.Fatalf("explicit id not honored: %d", id5)
	}
	idNext := p.MustAdd(&Task{Kind: FillIn})
	if idNext != 51 {
		t.Fatalf("next id after explicit 50 should be 51, got %d", idNext)
	}
	if p.Len() != 4 {
		t.Fatalf("Len = %d", p.Len())
	}
}

func TestPoolAddValidates(t *testing.T) {
	p := NewPool()
	if _, err := p.Add(&Task{Kind: SingleChoice, Options: []string{"only"}}); err == nil {
		t.Fatal("invalid task should be rejected")
	}
}

func TestPoolRecordRules(t *testing.T) {
	p := NewPool()
	id := p.MustAdd(binaryTask(0, 1))
	if err := p.Record(Answer{Task: id, Worker: "w1", Option: 1}); err != nil {
		t.Fatal(err)
	}
	// Duplicate answer from same worker rejected for single-choice.
	if err := p.Record(Answer{Task: id, Worker: "w1", Option: 0}); err == nil {
		t.Fatal("duplicate answer should be rejected")
	}
	// Different worker fine.
	if err := p.Record(Answer{Task: id, Worker: "w2", Option: 0}); err != nil {
		t.Fatal(err)
	}
	// Unknown task rejected.
	if err := p.Record(Answer{Task: 999, Worker: "w1"}); err == nil {
		t.Fatal("unknown task should be rejected")
	}
	// Closed task rejected.
	p.Close(id)
	if err := p.Record(Answer{Task: id, Worker: "w3", Option: 1}); err == nil {
		t.Fatal("closed task should reject answers")
	}
	if p.AnswerCount(id) != 2 || p.TotalAnswers() != 2 {
		t.Fatalf("answer counts wrong: %d, %d", p.AnswerCount(id), p.TotalAnswers())
	}
}

func TestPoolCollectionAllowsRepeatAnswers(t *testing.T) {
	p := NewPool()
	id := p.MustAdd(&Task{Kind: Collection, Question: "name a US state"})
	for i := 0; i < 3; i++ {
		if err := p.Record(Answer{Task: id, Worker: "w1", Option: -1, Text: "state"}); err != nil {
			t.Fatalf("collection repeat answer %d rejected: %v", i, err)
		}
	}
	if p.AnswerCount(id) != 3 {
		t.Fatalf("collection answers = %d", p.AnswerCount(id))
	}
}

func TestPoolEligibleAndOpen(t *testing.T) {
	p := NewPool()
	a := p.MustAdd(binaryTask(0, 1))
	b := p.MustAdd(binaryTask(1, 0))
	if err := p.Record(Answer{Task: a, Worker: "w1", Option: 1}); err != nil {
		t.Fatal(err)
	}
	el := p.EligibleFor("w1")
	if len(el) != 1 || el[0] != b {
		t.Fatalf("EligibleFor(w1) = %v", el)
	}
	p.Close(b)
	if len(p.EligibleFor("w1")) != 0 {
		t.Fatal("closed task should not be eligible")
	}
	open := p.OpenTasks()
	if len(open) != 1 || open[0] != a {
		t.Fatalf("OpenTasks = %v", open)
	}
	if !p.HasAnswered("w1", a) || p.HasAnswered("w2", a) {
		t.Fatal("HasAnswered bookkeeping wrong")
	}
}

func TestPoolOptionVotes(t *testing.T) {
	p := NewPool()
	id := p.MustAdd(binaryTask(0, 1))
	p.Record(Answer{Task: id, Worker: "w1", Option: 1})
	p.Record(Answer{Task: id, Worker: "w2", Option: 1})
	p.Record(Answer{Task: id, Worker: "w3", Option: 0})
	votes := p.OptionVotes(id)
	if votes[0] != 1 || votes[1] != 2 {
		t.Fatalf("votes = %v", votes)
	}
	if p.OptionVotes(999) != nil {
		t.Fatal("votes for unknown task should be nil")
	}
}

func TestPoolWorkersSorted(t *testing.T) {
	p := NewPool()
	id := p.MustAdd(binaryTask(0, 1))
	p.Record(Answer{Task: id, Worker: "zed", Option: 1})
	p.Record(Answer{Task: id, Worker: "ann", Option: 1})
	ws := p.Workers()
	if len(ws) != 2 || ws[0] != "ann" || ws[1] != "zed" {
		t.Fatalf("Workers = %v", ws)
	}
}

func TestPlatformCollectRedundant(t *testing.T) {
	p := NewPool()
	for i := 0; i < 5; i++ {
		p.MustAdd(binaryTask(TaskID(i+1), 1))
	}
	workers := []Worker{
		&truthfulWorker{id: "w1"},
		&truthfulWorker{id: "w2"},
		&truthfulWorker{id: "w3"},
	}
	pl := NewPlatform(p, workers, Unlimited())
	res, err := pl.CollectRedundant(firstOpen, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.AnswersCollected != 15 {
		t.Fatalf("collected %d answers, want 15", res.AnswersCollected)
	}
	for _, id := range p.TaskIDs() {
		if p.AnswerCount(id) != 3 {
			t.Fatalf("task %d has %d answers", id, p.AnswerCount(id))
		}
		if !p.Closed(id) {
			t.Fatalf("task %d not closed after reaching redundancy", id)
		}
	}
	if spent := pl.Budget.Spent(); spent != 15 {
		t.Fatalf("spent %d units", spent)
	}
	if res.Makespan <= 0 {
		t.Fatalf("makespan = %v, want > 0", res.Makespan)
	}
}

func TestPlatformBudgetStopsRun(t *testing.T) {
	p := NewPool()
	for i := 0; i < 10; i++ {
		p.MustAdd(binaryTask(TaskID(i+1), 1))
	}
	pl := NewPlatform(p, []Worker{&truthfulWorker{id: "w1"}}, NewBudget(4))
	_, err := pl.CollectRedundant(firstOpen, 2)
	if !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("expected budget exhaustion, got %v", err)
	}
	if p.TotalAnswers() != 4 {
		t.Fatalf("collected %d answers under budget 4", p.TotalAnswers())
	}
}

func TestPlatformStopsWhenNoEligibleWork(t *testing.T) {
	p := NewPool()
	p.MustAdd(binaryTask(1, 1))
	// One worker cannot provide redundancy 3 alone (one answer per task).
	pl := NewPlatform(p, []Worker{&truthfulWorker{id: "solo"}}, Unlimited())
	res, err := pl.CollectRedundant(firstOpen, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.AnswersCollected != 1 {
		t.Fatalf("collected %d, want 1", res.AnswersCollected)
	}
}

func TestPlatformCollectBudget(t *testing.T) {
	p := NewPool()
	for i := 0; i < 3; i++ {
		p.MustAdd(binaryTask(TaskID(i+1), 1))
	}
	workers := []Worker{&truthfulWorker{id: "w1"}, &truthfulWorker{id: "w2"}}
	pl := NewPlatform(p, workers, NewBudget(5))
	res, err := pl.CollectBudget(firstOpen)
	if err != nil {
		t.Fatal(err)
	}
	if res.AnswersCollected != 5 || pl.Budget.Spent() != 5 {
		t.Fatalf("budget run: answers=%d spent=%d", res.AnswersCollected, pl.Budget.Spent())
	}
}

func TestWorkerScreenElimination(t *testing.T) {
	s := NewWorkerScreen(3, 0.6)
	// Not enough observations yet.
	s.Observe("spam", false)
	s.Observe("spam", false)
	if s.Eliminated("spam") {
		t.Fatal("eliminated before MinObservations")
	}
	s.Observe("spam", false)
	if !s.Eliminated("spam") {
		t.Fatal("0/3 worker should be eliminated at threshold 0.6")
	}
	for i := 0; i < 5; i++ {
		s.Observe("good", true)
	}
	if s.Eliminated("good") {
		t.Fatal("perfect worker eliminated")
	}
	if acc, n := s.Accuracy("unknown"); acc != 1 || n != 0 {
		t.Fatalf("unknown worker accuracy = %v, %d", acc, n)
	}
	elim := s.EliminatedWorkers()
	if len(elim) != 1 || elim[0] != "spam" {
		t.Fatalf("EliminatedWorkers = %v", elim)
	}
}

func TestPlatformGoldenScreening(t *testing.T) {
	p := NewPool()
	// 5 golden tasks: a scripted worker always answering 0 fails goldens
	// whose truth is 1.
	for i := 0; i < 5; i++ {
		tk := binaryTask(TaskID(i+1), 1)
		tk.Golden = true
		p.MustAdd(tk)
	}
	for i := 5; i < 10; i++ {
		p.MustAdd(binaryTask(TaskID(i+1), 1))
	}
	spammer := &scriptedWorker{id: "spam", option: 0, latency: 1}
	pl := NewPlatform(p, []Worker{spammer}, Unlimited())
	pl.Screen = NewWorkerScreen(3, 0.5)
	res, err := pl.CollectRedundant(firstOpen, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !pl.Screen.Eliminated("spam") {
		t.Fatal("spammer survived golden screening")
	}
	// Once eliminated, the spammer stops receiving work, so not every task
	// gets an answer.
	if res.AnswersCollected >= 10 {
		t.Fatalf("eliminated worker kept working: %d answers", res.AnswersCollected)
	}
}

func TestAnswerMatchesGolden(t *testing.T) {
	choice := binaryTask(1, 1)
	choice.Golden = true
	if !answerMatchesGolden(choice, Answer{Option: 1}) || answerMatchesGolden(choice, Answer{Option: 0}) {
		t.Fatal("choice golden matching broken")
	}
	fill := &Task{Kind: FillIn, GroundTruthText: "paris"}
	if !answerMatchesGolden(fill, Answer{Text: "paris"}) || answerMatchesGolden(fill, Answer{Text: "rome"}) {
		t.Fatal("fill-in golden matching broken")
	}
	rate := &Task{Kind: Rating, GroundTruthScore: 3}
	if !answerMatchesGolden(rate, Answer{Score: 3.4}) || answerMatchesGolden(rate, Answer{Score: 4}) {
		t.Fatal("rating golden matching broken")
	}
}

func qualQuiz(n int) []*Task {
	quiz := make([]*Task, n)
	for i := range quiz {
		quiz[i] = binaryTask(TaskID(i+1), 1)
	}
	return quiz
}

func TestQualificationPartitionsWorkers(t *testing.T) {
	q := &Qualification{Quiz: qualQuiz(5), MinAccuracy: 0.8}
	good := &truthfulWorker{id: "good"}
	bad := &scriptedWorker{id: "bad", option: 0}
	res, err := q.Run([]Worker{good, bad})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Passed) != 1 || res.Passed[0].ID() != "good" {
		t.Fatalf("passed = %v", res.Passed)
	}
	if len(res.Failed) != 1 || res.Failed[0].ID() != "bad" {
		t.Fatalf("failed = %v", res.Failed)
	}
	if res.Scores["good"] != 1 || res.Scores["bad"] != 0 {
		t.Fatalf("scores = %v", res.Scores)
	}
	if res.AnswersUsed != 10 {
		t.Fatalf("quiz cost = %d, want 2 workers x 5 questions", res.AnswersUsed)
	}
}

func TestQualificationValidation(t *testing.T) {
	if _, err := (&Qualification{MinAccuracy: 0.5}).Run(nil); err == nil {
		t.Fatal("empty quiz should fail")
	}
	noTruth := &Task{ID: 1, Kind: SingleChoice, Options: []string{"a", "b"}, GroundTruth: -1}
	if _, err := (&Qualification{Quiz: []*Task{noTruth}}).Run(nil); err == nil {
		t.Fatal("quiz without planted truth should fail")
	}
	collection := &Task{ID: 1, Kind: Collection}
	if _, err := (&Qualification{Quiz: []*Task{collection}}).Run(nil); err == nil {
		t.Fatal("ungradeable quiz task should fail")
	}
}

func TestQualificationFillInQuiz(t *testing.T) {
	quiz := []*Task{{ID: 1, Kind: FillIn, GroundTruthText: "paris"}}
	q := &Qualification{Quiz: quiz, MinAccuracy: 1}
	knower := &scriptedWorker{id: "k", option: -1, text: "paris"}
	guesser := &scriptedWorker{id: "g", option: -1, text: "rome"}
	res, err := q.Run([]Worker{knower, guesser})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Passed) != 1 || res.Passed[0].ID() != "k" {
		t.Fatalf("fill-in quiz partition wrong: %v", res.Scores)
	}
}

func TestBudgetTryChargeAndRefund(t *testing.T) {
	b := NewBudget(2)
	if !b.TryCharge(1) || !b.TryCharge(1) {
		t.Fatal("charges within budget refused")
	}
	if b.TryCharge(1) {
		t.Fatal("charge beyond total accepted")
	}
	if b.TryCharge(-1) {
		t.Fatal("negative charge accepted")
	}
	b.Refund(1)
	if b.Spent() != 1 {
		t.Fatalf("spent after refund = %v", b.Spent())
	}
	if !b.TryCharge(1) {
		t.Fatal("refunded unit not rechargeable")
	}
	// Refunds never drive spent below zero, and non-positive refunds are
	// ignored.
	b.Refund(100)
	if b.Spent() != 0 {
		t.Fatalf("over-refund left spent = %v", b.Spent())
	}
	b.Refund(-5)
	if b.Spent() != 0 {
		t.Fatalf("negative refund changed spent: %v", b.Spent())
	}
}

func TestBudgetConcurrentTryCharge(t *testing.T) {
	const total, workers, attempts = 500, 8, 200
	b := NewBudget(total)
	var granted atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < attempts; i++ {
				if b.TryCharge(1) {
					granted.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if granted.Load() != total {
		t.Fatalf("granted %d charges under budget %d", granted.Load(), total)
	}
	if b.Spent() != total {
		t.Fatalf("spent = %d, want %d", b.Spent(), total)
	}
}

func TestConcurrentPoolDelegation(t *testing.T) {
	cp := newSharded(1)
	v0 := cp.Version()
	id, err := cp.Add(binaryTask(0, 1))
	if err != nil {
		t.Fatal(err)
	}
	if cp.Version() == v0 {
		t.Fatal("Add did not bump the version")
	}
	if cp.Task(id) == nil || cp.Len() != 1 {
		t.Fatal("task lookup through wrapper failed")
	}
	v1 := cp.Version()
	if err := record(cp, Answer{Task: id, Worker: "w1", Option: 1}); err != nil {
		t.Fatal(err)
	}
	if cp.Version() == v1 {
		t.Fatal("Record did not bump the version")
	}
	v2 := cp.Version()
	// Rejected answers must not bump the version (caches stay valid).
	if err := record(cp, Answer{Task: id, Worker: "w1", Option: 0}); err == nil {
		t.Fatal("duplicate answer accepted")
	}
	if cp.Version() != v2 {
		t.Fatal("rejected Record bumped the version")
	}
	p := flat(cp)
	if cp.AnswerCount(id) != 1 || p.TotalAnswers() != 1 {
		t.Fatal("answer counts wrong through wrapper")
	}
	if !p.HasAnswered("w1", id) || p.HasAnswered("w2", id) {
		t.Fatal("HasAnswered wrong through wrapper")
	}
	if got := cp.Answers(id); len(got) != 1 || got[0].Worker != "w1" {
		t.Fatalf("Answers = %v", got)
	}
	if votes := p.OptionVotes(id); votes[1] != 1 {
		t.Fatalf("OptionVotes = %v", votes)
	}
	if ws := p.Workers(); len(ws) != 1 || ws[0] != "w1" {
		t.Fatalf("Workers = %v", ws)
	}
	cp.Close(id)
	if p := flat(cp); !p.Closed(id) || len(p.OpenTasks()) != 0 {
		t.Fatal("Close not visible through wrapper")
	}
	if len(flat(cp).EligibleFor("w2")) != 0 {
		t.Fatal("closed task still eligible")
	}
}

func TestConcurrentPoolParallelAccess(t *testing.T) {
	cp := newSharded(1)
	const tasks = 40
	ids := make([]TaskID, tasks)
	for i := 0; i < tasks; i++ {
		id, err := cp.Add(binaryTask(TaskID(i+1), 1))
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	const workers = 8
	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			worker := fmt.Sprintf("w%d", w)
			for {
				id, ok := cp.Assign(firstOpen, worker)
				if !ok {
					return
				}
				if err := record(cp, Answer{Task: id, Worker: worker, Option: 1}); err != nil {
					errCh <- err
					return
				}
				// Interleave reads with the writes.
				_ = cp.Len()
				_ = cp.Answers(id)
				cp.ViewAll(func(pools []*Pool) { _ = pools[0].OpenTasks() })
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if got := flat(cp).TotalAnswers(); got != tasks*workers {
		t.Fatalf("answers = %d, want %d", got, tasks*workers)
	}
	for _, id := range ids {
		if cp.AnswerCount(id) != workers {
			t.Fatalf("task %d has %d answers", id, cp.AnswerCount(id))
		}
	}
}

// TestBudgetMoneyIsExact: goroutines reserve and refund amounts of one to
// three units against a finite budget, each refunding only units it holds.
// The spend never exceeds the total, and at the end it is the units
// charged minus the units refunded, exactly. Run it under -race.
func TestBudgetMoneyIsExact(t *testing.T) {
	const total, workers, rounds = 100, 8, 2000
	b := NewBudget(total)
	var charged, refunded atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			held := int64(0)
			for i := 0; i < rounds; i++ {
				units := int64(1 + (i+w)%3)
				if b.TryCharge(units) {
					held += units
					charged.Add(units)
				}
				if spent := b.Spent(); spent > total {
					t.Errorf("spent %d of a total of %d", spent, total)
					return
				}
				if back := min(held, int64(1+(i*w)%3)); i%2 == 1 && back > 0 {
					b.Refund(back)
					held -= back
					refunded.Add(back)
				}
			}
		}()
	}
	wg.Wait()
	if charged.Load() <= total {
		t.Fatalf("only %d units were charged; the budget never ran out", charged.Load())
	}
	if got, want := b.Spent(), charged.Load()-refunded.Load(); got != want {
		t.Fatalf("spent %d, want %d charged - %d refunded = %d", got, charged.Load(), refunded.Load(), want)
	}
}
