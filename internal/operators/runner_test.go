package operators

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/crowd"
	"repro/internal/stats"
	"repro/internal/truth"
)

func reliableRunner(seed uint64, n int) *Runner {
	rng := stats.NewRNG(seed)
	ws := crowd.NewPopulation(rng, n, crowd.RegimeReliable)
	return NewRunner(crowd.AsCoreWorkers(ws), nil, rng)
}

func mixedRunner(seed uint64, n int) *Runner {
	rng := stats.NewRNG(seed)
	ws := crowd.NewPopulation(rng, n, crowd.RegimeMixed)
	return NewRunner(crowd.AsCoreWorkers(ws), nil, rng)
}

func binTask(t *testing.T, r *Runner, truth int, difficulty float64) *core.Task {
	t.Helper()
	task, err := r.NewTask(&core.Task{
		Kind: core.SingleChoice, Options: []string{"no", "yes"},
		GroundTruth: truth, Difficulty: difficulty,
	})
	if err != nil {
		t.Fatal(err)
	}
	return task
}

func TestRunnerOneDistinctWorkers(t *testing.T) {
	r := reliableRunner(1, 5)
	task := binTask(t, r, 1, 0.1)
	seen := map[string]bool{}
	for i := 0; i < 5; i++ {
		a, err := r.One(task)
		if err != nil {
			t.Fatal(err)
		}
		if seen[a.Worker] {
			t.Fatalf("worker %s answered twice", a.Worker)
		}
		seen[a.Worker] = true
	}
	if _, err := r.One(task); !errors.Is(err, ErrNoWorkers) {
		t.Fatalf("expected ErrNoWorkers, got %v", err)
	}
	if r.AnswersUsed != 5 || r.TasksAsked != 1 {
		t.Fatalf("accounting: answers=%d tasks=%d", r.AnswersUsed, r.TasksAsked)
	}
}

func TestRunnerBudgetEnforced(t *testing.T) {
	rng := stats.NewRNG(2)
	ws := crowd.NewPopulation(rng, 10, crowd.RegimeReliable)
	r := NewRunner(crowd.AsCoreWorkers(ws), core.NewBudget(3), rng)
	task := binTask(t, r, 1, 0.1)
	if _, err := r.Collect(task, 3); err != nil {
		t.Fatal(err)
	}
	task2 := binTask(t, r, 1, 0.1)
	if _, err := r.One(task2); !errors.Is(err, core.ErrBudgetExhausted) {
		t.Fatalf("expected budget exhaustion, got %v", err)
	}
}

func TestRunnerCollectValidation(t *testing.T) {
	r := reliableRunner(3, 5)
	task := binTask(t, r, 1, 0.1)
	if _, err := r.Collect(task, 0); err == nil {
		t.Fatal("k=0 should fail")
	}
}

func TestMajorityOptionRecoversTruth(t *testing.T) {
	r := reliableRunner(4, 30)
	correct := 0
	for i := 0; i < 50; i++ {
		task := binTask(t, r, i%2, 0.2)
		opt, err := r.MajorityOption(task, 5)
		if err != nil {
			t.Fatal(err)
		}
		if opt == i%2 {
			correct++
		}
	}
	if correct < 47 {
		t.Fatalf("majority of 5 reliable workers right only %d/50", correct)
	}
}

func TestNewTaskAssignsUniqueIDsAndValidates(t *testing.T) {
	r := reliableRunner(5, 3)
	a := binTask(t, r, 0, 0)
	b := binTask(t, r, 1, 0)
	if a.ID == b.ID {
		t.Fatal("duplicate task ids")
	}
	if _, err := r.NewTask(&core.Task{Kind: core.SingleChoice, Options: []string{"only"}}); err == nil {
		t.Fatal("invalid task should be rejected")
	}
}

func TestInferBatch(t *testing.T) {
	r := mixedRunner(6, 25)
	rng := stats.NewRNG(7)
	var tasks []*core.Task
	truthMap := map[core.TaskID]int{}
	for i := 0; i < 60; i++ {
		gt := rng.Intn(2)
		task, err := r.NewTask(&core.Task{
			Kind: core.SingleChoice, Options: []string{"no", "yes"},
			GroundTruth: gt, Difficulty: 0.2,
		})
		if err != nil {
			t.Fatal(err)
		}
		tasks = append(tasks, task)
		truthMap[task.ID] = gt
	}
	res, err := r.InferBatch(tasks, 5, truth.OneCoinEM{})
	if err != nil {
		t.Fatal(err)
	}
	correct := 0
	for id, gt := range truthMap {
		if res.Label(id) == gt {
			correct++
		}
	}
	if correct < 55 {
		t.Fatalf("InferBatch accuracy %d/60", correct)
	}
	if r.AnswersUsed != 300 {
		t.Fatalf("answers used = %d, want 300", r.AnswersUsed)
	}
}

// roundRemote answers every question of a round with its planted truth and
// records the size of each round it was handed.
type roundRemote struct{ rounds []int }

func (r *roundRemote) Ask(ctx context.Context, round []Question, k int, resolved func(int, []core.Answer)) error {
	r.rounds = append(r.rounds, len(round))
	for i, q := range round {
		answers := make([]core.Answer, k)
		for j := range answers {
			answers[j] = core.Answer{Task: q.Task.ID, Worker: fmt.Sprintf("w%d", j), Option: q.Task.GroundTruth}
		}
		resolved(i, answers)
	}
	return nil
}

// With a remote crowd InferBatch is one real round — every task published
// before the first answer — and a single Collect is a round of one; the
// runner's counters track the remote answers either way.
func TestRemoteRounds(t *testing.T) {
	remote := &roundRemote{}
	r := NewRunner(nil, nil, stats.NewRNG(8))
	r.Remote = remote
	var tasks []*core.Task
	for i := 0; i < 12; i++ {
		tasks = append(tasks, binTask(t, r, i%2, 0.2))
	}
	res, err := r.InferBatch(tasks, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, task := range tasks {
		if res.Label(task.ID) != i%2 {
			t.Fatalf("task %d inferred %d, want %d", task.ID, res.Label(task.ID), i%2)
		}
	}
	if opt, err := r.MajorityOption(binTask(t, r, 1, 0.2), 5); err != nil || opt != 1 {
		t.Fatalf("MajorityOption = %d, %v", opt, err)
	}
	if len(remote.rounds) != 2 || remote.rounds[0] != 12 || remote.rounds[1] != 1 {
		t.Fatalf("remote saw rounds %v, want [12 1]", remote.rounds)
	}
	if r.AnswersUsed != 12*3+5 || r.TasksAsked != 13 {
		t.Fatalf("accounting: answers=%d tasks=%d, want 41/13", r.AnswersUsed, r.TasksAsked)
	}
}
