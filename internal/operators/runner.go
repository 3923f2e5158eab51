// Package operators implements the crowd-powered query operators surveyed
// in crowdsourced data management: selection/filtering with sequential
// stopping strategies, entity-resolution join (machine pruning + batching
// + transitivity), sort / top-k / max via pairwise comparisons,
// tournaments, ratings and hybrids, sampling-based count/aggregation, and
// open-domain collection with species estimation.
//
// Operators talk to the crowd through a Runner, which hands tasks to
// simulated (or scripted) workers one answer at a time, enforces the
// one-answer-per-worker-per-task rule, and accounts cost against a budget.
package operators

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/truth"
)

// ErrNoWorkers is returned when every worker has already answered a task
// that needs more answers.
var ErrNoWorkers = errors.New("operators: no remaining worker for task")

// Question is one crowd question of a round.
type Question struct {
	Task *core.Task
	// Span is the question's trace span when the round is being traced:
	// a remote source stamps the question's publish / lease / answer /
	// close events on it. Nil otherwise (every Span method no-ops on nil).
	Span *obs.Span
}

// RemoteSource routes crowd questions to an external answering service —
// typically a serving pool reached over HTTP — instead of the runner's
// in-process worker loop. Ask publishes the whole round at once and blocks
// until every question has k answers or ctx is canceled; a single question
// is a round of one. As each question completes, resolved(i, answers) runs
// on the calling goroutine with the question's index in the round and its
// k answers, so callers can bind results while the rest of the round is
// still open. A source that can publish only a prefix of the round (its
// budget ran out) resolves that prefix and then returns the error; on
// cancellation it retires every still-open question and returns ctx's
// error. Budget accounting for remote questions belongs to the remote
// side: the runner's own budget is not charged for them.
type RemoteSource interface {
	Ask(ctx context.Context, round []Question, k int, resolved func(i int, answers []core.Answer)) error
}

// Runner feeds operator questions to a worker pool sequentially. It is the
// cost/quality-facing counterpart of core.Platform (which models rounds
// and latency): operators care about how many answers they consume and
// what the aggregated results are.
type Runner struct {
	workers []core.Worker
	budget  *core.Budget
	rng     *stats.RNG

	// answered[taskKey] tracks which worker indices have answered.
	answered map[core.TaskID]map[int]bool
	nextID   core.TaskID

	// AnswersUsed counts every answer collected through this runner.
	AnswersUsed int
	// TasksAsked counts distinct tasks that received at least one answer.
	TasksAsked int

	// Remote, when set, redirects AskRound (and everything built on it)
	// to an external answer source; the in-process workers and the
	// runner's budget are bypassed. The runner's accounting counters still
	// track remote answers.
	Remote RemoteSource
}

// NewRunner wires a runner. A nil budget means unlimited.
func NewRunner(workers []core.Worker, budget *core.Budget, rng *stats.RNG) *Runner {
	if budget == nil {
		budget = core.Unlimited()
	}
	return &Runner{
		workers:  workers,
		budget:   budget,
		rng:      rng,
		answered: make(map[core.TaskID]map[int]bool),
		nextID:   1,
	}
}

// Budget exposes the runner's budget for callers that share it.
func (r *Runner) Budget() *core.Budget { return r.budget }

// NewTask stamps a fresh task id onto t and validates it.
func (r *Runner) NewTask(t *core.Task) (*core.Task, error) {
	t.ID = r.nextID
	r.nextID++
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// One collects a single answer for t from a uniformly random worker that
// has not answered it yet. It charges one budget unit.
func (r *Runner) One(t *core.Task) (core.Answer, error) {
	used := r.answered[t.ID]
	if used == nil {
		used = make(map[int]bool)
		r.answered[t.ID] = used
	}
	remaining := len(r.workers) - len(used)
	if remaining <= 0 {
		return core.Answer{}, fmt.Errorf("task %d: %w", t.ID, ErrNoWorkers)
	}
	if err := r.budget.Charge(1); err != nil {
		return core.Answer{}, err
	}
	// Pick the nth unused worker uniformly.
	n := r.rng.Intn(remaining)
	wi := -1
	for i := range r.workers {
		if used[i] {
			continue
		}
		if n == 0 {
			wi = i
			break
		}
		n--
	}
	used[wi] = true
	if len(used) == 1 {
		r.TasksAsked++
	}
	w := r.workers[wi]
	resp := w.Work(t)
	r.AnswersUsed++
	return core.Answer{
		Task: t.ID, Worker: w.ID(),
		Option: resp.Option, Text: resp.Text, Score: resp.Score,
		Latency: resp.Latency,
	}, nil
}

// AskRound asks every question of the round for k answers each and hands
// each question's answers to resolved(i, answers) as it completes. With a
// Remote source the whole round is delegated to it — publish everything,
// wait once, cancel semantics included (see RemoteSource). In process the
// questions are answered one after another in round order on the calling
// goroutine, k draws of One each, so the worker and RNG sequence is the
// same as asking them one at a time; ctx is checked before every draw.
func (r *Runner) AskRound(ctx context.Context, round []Question, k int, resolved func(i int, answers []core.Answer)) error {
	if k <= 0 {
		return fmt.Errorf("operators: redundancy must be positive (got %d)", k)
	}
	if r.Remote != nil {
		return r.Remote.Ask(ctx, round, k, func(i int, answers []core.Answer) {
			r.AnswersUsed += len(answers)
			if len(answers) > 0 {
				r.TasksAsked++
			}
			resolved(i, answers)
		})
	}
	for i, q := range round {
		answers := make([]core.Answer, 0, k)
		for len(answers) < k {
			if err := ctx.Err(); err != nil {
				return err
			}
			a, err := r.One(q.Task)
			if err != nil {
				return err
			}
			answers = append(answers, a)
		}
		resolved(i, answers)
	}
	return nil
}

// Collect gathers k answers for t (distinct workers): a round of one.
func (r *Runner) Collect(t *core.Task, k int) ([]core.Answer, error) {
	var out []core.Answer
	err := r.AskRound(context.Background(), []Question{{Task: t}}, k,
		func(_ int, answers []core.Answer) { out = answers })
	return out, err
}

// MajorityOption asks k workers and returns the plurality option (ties to
// the lowest index).
func (r *Runner) MajorityOption(t *core.Task, k int) (int, error) {
	answers, err := r.Collect(t, k)
	if err != nil {
		return 0, err
	}
	return Plurality(t, answers)
}

// Plurality returns the option of t most answers chose (ties to the lowest
// index).
func Plurality(t *core.Task, answers []core.Answer) (int, error) {
	votes := make([]float64, len(t.Options))
	for _, a := range answers {
		if a.Option >= 0 && a.Option < len(votes) {
			votes[a.Option]++
		}
	}
	best := stats.ArgMax(votes)
	if best < 0 {
		return 0, fmt.Errorf("operators: task %d got no usable votes", t.ID)
	}
	return best, nil
}

// InferBatch publishes all tasks as one round, collects redundancy-k
// answers for each, and aggregates with the given inference method
// (MajorityVote when nil). It is the batch-mode counterpart of
// MajorityOption used by operators that generate many homogeneous tasks
// (joins, filters in batch mode).
func (r *Runner) InferBatch(tasks []*core.Task, k int, inf truth.Inferrer) (*truth.Result, error) {
	if inf == nil {
		inf = truth.MajorityVote{}
	}
	pool := core.NewPool()
	ids := make([]core.TaskID, 0, len(tasks))
	round := make([]Question, 0, len(tasks))
	for _, t := range tasks {
		id, err := pool.Add(t)
		if err != nil {
			return nil, err
		}
		ids = append(ids, id)
		round = append(round, Question{Task: t})
	}
	var recErr error
	err := r.AskRound(context.Background(), round, k, func(_ int, answers []core.Answer) {
		for _, a := range answers {
			if err := pool.Record(a); err != nil && recErr == nil {
				recErr = err
			}
		}
	})
	if err == nil {
		err = recErr
	}
	if err != nil {
		return nil, err
	}
	ds, err := truth.FromPool(pool, ids)
	if err != nil {
		return nil, err
	}
	return inf.Infer(ds)
}
