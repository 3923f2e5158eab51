package core

import (
	"errors"
	"fmt"
)

// Assigner chooses which open task an arriving worker should do next.
// Implementations live in the assign package; the kernel depends only on
// this interface.
type Assigner interface {
	// Assign returns the task to give the worker, or ok=false when no
	// eligible task remains for them.
	Assign(p *Pool, worker string) (TaskID, bool)
}

// AssignerFunc adapts a function to the Assigner interface.
type AssignerFunc func(p *Pool, worker string) (TaskID, bool)

// Assign calls f.
func (f AssignerFunc) Assign(p *Pool, worker string) (TaskID, bool) { return f(p, worker) }

// RunResult summarizes one platform run.
type RunResult struct {
	// Rounds is the number of synchronous rounds executed.
	Rounds int
	// AnswersCollected is the number of answers recorded during the run;
	// each cost one budget unit.
	AnswersCollected int
	// Makespan is the simulated wall-clock duration: rounds are
	// synchronous, so each round lasts as long as its slowest answer.
	Makespan float64
}

// Platform pairs a worker population with a task pool under a budget. It
// models the synchronous round abstraction used throughout the latency
// control literature: in each round every available worker receives (at
// most) one task, works on it, and submits.
type Platform struct {
	Pool    *Pool
	Workers []Worker
	Budget  *Budget
	// Screen, when non-nil, filters out workers that failed golden-task
	// screening: eliminated workers no longer receive assignments.
	Screen *WorkerScreen
	// Clock is the simulated time at the start of the next round.
	Clock float64
}

// NewPlatform wires a platform; every collected answer costs one unit.
func NewPlatform(pool *Pool, workers []Worker, budget *Budget) *Platform {
	if budget == nil {
		budget = Unlimited()
	}
	return &Platform{Pool: pool, Workers: workers, Budget: budget}
}

// Step runs one synchronous round: each non-eliminated worker receives at
// most one assignment from the assigner and submits an answer. It returns
// the number of answers collected this round. Budget exhaustion stops the
// round early and is reported via the error (errors.Is ErrBudgetExhausted).
//
// Budget accounting follows the TryCharge/Refund reservation protocol: a
// unit is reserved before the worker works, and refunded when the worker
// abandons the assignment or the pool rejects the answer — a failed record
// never burns budget.
func (pl *Platform) Step(assigner Assigner) (int, error) {
	collected := 0
	roundLatency := 0.0
	for _, w := range pl.Workers {
		if pl.Screen != nil && pl.Screen.Eliminated(w.ID()) {
			continue
		}
		id, ok := assigner.Assign(pl.Pool, w.ID())
		if !ok {
			continue
		}
		t := pl.Pool.Task(id)
		if t == nil {
			return collected, fmt.Errorf("core: assigner returned unknown task %d", id)
		}
		if err := pl.Budget.Charge(1); err != nil {
			pl.Clock += roundLatency
			return collected, err
		}
		resp := w.Work(t)
		if resp.Abandon {
			// The worker dropped out mid-task: nothing to record, and the
			// reserved unit goes back. The round does not wait for them.
			pl.Budget.Refund(1)
			continue
		}
		a := Answer{
			Task:      id,
			Worker:    w.ID(),
			Option:    resp.Option,
			Text:      resp.Text,
			Score:     resp.Score,
			Submitted: pl.Clock + resp.Latency,
			Latency:   resp.Latency,
		}
		if err := pl.Pool.Record(a); err != nil {
			pl.Budget.Refund(1)
			return collected, fmt.Errorf("core: recording answer: %w", err)
		}
		if resp.Latency > roundLatency {
			roundLatency = resp.Latency
		}
		collected++
		if pl.Screen != nil && t.Golden {
			pl.Screen.Observe(w.ID(), answerMatchesGolden(t, a))
		}
	}
	pl.Clock += roundLatency
	return collected, nil
}

// CollectRedundant runs rounds until every open task has at least k
// answers (then closes them), the budget is exhausted, or a round makes no
// progress. It is the standard "redundancy-k" collection scheme.
func (pl *Platform) CollectRedundant(assigner Assigner, k int) (RunResult, error) {
	var res RunResult
	for {
		// Close tasks that reached the redundancy target.
		done := true
		for _, id := range pl.Pool.OpenTasks() {
			if pl.Pool.AnswerCount(id) >= k {
				pl.Pool.Close(id)
				continue
			}
			done = false
		}
		if done {
			break
		}
		before := pl.Clock
		n, err := pl.Step(assigner)
		res.Rounds++
		res.AnswersCollected += n
		res.Makespan += pl.Clock - before
		if err != nil {
			return res, err
		}
		if n == 0 {
			// No worker could take any task: the remaining open tasks can
			// never reach k with this worker population.
			break
		}
	}
	return res, nil
}

// CollectBudget runs rounds until the budget is exhausted or no assignment
// can be made. It is the regime used by budget-sweep experiments, where the
// assignment policy decides where marginal answers go.
func (pl *Platform) CollectBudget(assigner Assigner) (RunResult, error) {
	var res RunResult
	for {
		before := pl.Clock
		n, err := pl.Step(assigner)
		res.Rounds++
		res.AnswersCollected += n
		res.Makespan += pl.Clock - before
		if err != nil {
			if errors.Is(err, ErrBudgetExhausted) {
				return res, nil // exhausting the budget is the normal exit
			}
			return res, err
		}
		if n == 0 {
			break
		}
	}
	return res, nil
}

// answerMatchesGolden reports whether an answer agrees with a golden
// task's planted truth.
func answerMatchesGolden(t *Task, a Answer) bool {
	switch t.Kind {
	case SingleChoice, MultiChoice, PairwiseComparison:
		return a.Option == t.GroundTruth
	case FillIn:
		return a.Text == t.GroundTruthText
	case Rating:
		d := a.Score - t.GroundTruthScore
		return d >= -0.5 && d <= 0.5
	default:
		return false
	}
}
