// Package truth implements truth inference for crowdsourced answers: given
// redundant noisy labels, estimate the true answer of every task and the
// quality of every worker.
//
// The methods span the taxonomy in the survey:
//
//   - MajorityVote / WeightedMajorityVote — direct aggregation.
//   - OneCoinEM — worker-probability model (ZenCrowd-style): one accuracy
//     parameter per worker, EM.
//   - DawidSkene — full per-worker confusion matrices, EM.
//   - GLAD — worker ability × task difficulty logistic model, EM with
//     gradient M-step.
//   - Numeric aggregation (mean / median / weighted mean) for rating tasks.
//
// All methods consume a Dataset, a normalized view of choice-task answers,
// and produce a Result holding posterior label distributions, hard
// labels, and per-worker quality estimates.
package truth

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/stats"
)

// Dataset is the input to inference: a set of choice-type tasks with the
// same option count, plus all collected answers for them in a dense
// index-based layout. A Dataset is immutable once built; AppendDelta
// derives a grown one.
type Dataset struct {
	// K is the number of options shared by every task in the dataset.
	K int
	// TaskIDs lists the tasks in a deterministic order.
	TaskIDs []core.TaskID
	// WorkerIDs lists every worker that answered at least one task,
	// sorted.
	WorkerIDs []string

	taskIndex   map[core.TaskID]int
	workerIndex map[string]int

	// Dense CSR-style answer layout — the only copy of the answers. The
	// kernels iterate these flat slices instead of resolving map lookups
	// per answer per iteration.
	//
	// refs holds every usable answer in task-major order: all answers of
	// task 0 (in recorded order), then task 1, and so on.
	// taskOff[ti]..taskOff[ti+1] delimit task ti's answers within refs.
	//
	// wAns/wOff are the worker-major view: wAns[wOff[wi]..wOff[wi+1]]
	// lists the flat refs positions of worker wi's answers in ascending
	// position (= task) order. Per-worker statistics computed over this
	// view accumulate in exactly the task order a serial task-major sweep
	// would use, which is what makes the sharded M-steps bit-identical to
	// the serial path.
	refs    []answerRef
	taskOff []int32
	wAns    []int32
	wOff    []int32
}

// answerRef is one answer in the dense layout: indices instead of IDs.
type answerRef struct {
	task   int32
	worker int32
	option int32
}

// Source is the read surface FromPool consumes: task lookup and recorded
// answers. *core.Pool satisfies it directly; a sharded serving layer
// satisfies it with a view that routes each id to the owning shard, so
// inference never needs the answers merged into one pool first.
type Source interface {
	Task(id core.TaskID) *core.Task
	Answers(id core.TaskID) []core.Answer
}

// FromPool builds a Dataset from the choice-type tasks of a pool. Tasks
// with a different option count than the first task are rejected with an
// error (callers partition heterogeneous pools by option count first).
// Tasks with no answers are retained (their posterior will be the prior).
func FromPool(p Source, ids []core.TaskID) (*Dataset, error) {
	k := 0
	var answers []core.Answer
	for _, id := range ids {
		t := p.Task(id)
		if t == nil {
			return nil, fmt.Errorf("truth: unknown task %d", id)
		}
		switch t.Kind {
		case core.SingleChoice, core.MultiChoice, core.PairwiseComparison:
		default:
			return nil, fmt.Errorf("truth: task %d is %v, not choice-type", id, t.Kind)
		}
		if k == 0 {
			k = len(t.Options)
		} else if len(t.Options) != k {
			return nil, fmt.Errorf("truth: task %d has %d options, dataset has %d",
				id, len(t.Options), k)
		}
		answers = append(answers, p.Answers(id)...)
	}
	return FromAnswers(k, ids, answers)
}

// FromAnswers builds the Dataset over ids — choice tasks that all have k
// options, which the caller vouches for — from a flat answer list obeying
// AppendDelta's contract. It is FromPool for callers that copied the
// answers out from under the pool's locks and build outside them.
func FromAnswers(k int, ids []core.TaskID, answers []core.Answer) (*Dataset, error) {
	if len(ids) == 0 {
		return nil, fmt.Errorf("truth: empty task set")
	}
	empty := &Dataset{
		K:         k,
		TaskIDs:   append([]core.TaskID(nil), ids...),
		taskIndex: make(map[core.TaskID]int, len(ids)),
		taskOff:   make([]int32, len(ids)+1),
	}
	for ti, id := range ids {
		empty.taskIndex[id] = ti
	}
	return empty.AppendDelta(answers)
}

// AppendDelta returns a new Dataset equal to what FromPool would build
// over the same task set after delta was appended to the pool: the
// incremental path of a results endpoint, where a snapshot under the pool
// locks copies only the answers recorded since the previous refresh and
// the flat layout is extended outside any lock. The receiver is not
// mutated and stays valid (cached Results keep aliasing it).
//
// It is a linear merge: only the delta's task ids and worker names are
// hashed; the base's answers are copied task range by task range, already
// in index form. Their worker indices are rewritten — through an old→new
// table — only when the delta brought a worker the base had not seen,
// since a new name may sort before existing ones.
//
// delta must hold only answers for tasks already in ds, in per-task
// arrival order (the order the pool appends them); answers whose option
// is outside [0, K) are dropped, exactly as FromPool drops them. An
// answer for an unknown task is an error — task-set changes require a
// full rebuild.
func (ds *Dataset) AppendDelta(delta []core.Answer) (*Dataset, error) {
	n := len(ds.TaskIDs)
	nd := &Dataset{
		K:           ds.K,
		TaskIDs:     ds.TaskIDs, // task set unchanged by construction
		taskIndex:   ds.taskIndex,
		WorkerIDs:   ds.WorkerIDs,
		workerIndex: ds.workerIndex,
		taskOff:     make([]int32, n+1),
	}
	// Resolve the delta to index form, counting each task's growth in
	// nd.taskOff[ti+1]. A worker the base does not know takes a
	// provisional index past the base's, in first-seen order.
	add := make([]answerRef, 0, len(delta))
	var fresh []string
	var freshIndex map[string]int
	for _, a := range delta {
		ti, ok := ds.taskIndex[a.Task]
		if !ok {
			return nil, fmt.Errorf("truth: delta answer for task %d outside the dataset", a.Task)
		}
		if a.Option < 0 || a.Option >= ds.K {
			continue
		}
		wi, ok := ds.workerIndex[a.Worker]
		if !ok {
			if wi, ok = freshIndex[a.Worker]; !ok {
				if freshIndex == nil {
					freshIndex = make(map[string]int)
				}
				wi = len(ds.WorkerIDs) + len(fresh)
				freshIndex[a.Worker] = wi
				fresh = append(fresh, a.Worker)
			}
		}
		add = append(add, answerRef{task: int32(ti), worker: int32(wi), option: int32(a.Option)})
		nd.taskOff[ti+1]++
	}

	// Lay out each task as its base range followed by its delta answers.
	nd.refs = make([]answerRef, len(ds.refs)+len(add))
	next := make([]int32, n) // where each task's next delta answer lands
	at := int32(0)
	for ti := 0; ti < n; ti++ {
		grown := nd.taskOff[ti+1]
		nd.taskOff[ti] = at
		at += int32(copy(nd.refs[at:], ds.refs[ds.taskOff[ti]:ds.taskOff[ti+1]]))
		next[ti] = at
		at += grown
	}
	nd.taskOff[n] = at
	for _, r := range add {
		nd.refs[next[r.task]] = r
		next[r.task]++
	}

	if len(fresh) > 0 {
		old := len(ds.WorkerIDs)
		nd.WorkerIDs = append(append(make([]string, 0, old+len(fresh)), ds.WorkerIDs...), fresh...)
		sort.Strings(nd.WorkerIDs)
		nd.workerIndex = make(map[string]int, len(nd.WorkerIDs))
		for wi, w := range nd.WorkerIDs {
			nd.workerIndex[w] = wi
		}
		remap := make([]int32, old+len(fresh)) // base and provisional index → sorted index
		for wi, w := range ds.WorkerIDs {
			remap[wi] = int32(nd.workerIndex[w])
		}
		for j, w := range fresh {
			remap[old+j] = int32(nd.workerIndex[w])
		}
		for i := range nd.refs {
			nd.refs[i].worker = remap[nd.refs[i].worker]
		}
	}

	// Worker-major view via a counting sort over worker indices: stable,
	// so each worker's positions stay in ascending (task-major) order.
	nw := len(nd.WorkerIDs)
	nd.wOff = make([]int32, nw+1)
	for _, r := range nd.refs {
		nd.wOff[r.worker+1]++
	}
	for wi := 0; wi < nw; wi++ {
		nd.wOff[wi+1] += nd.wOff[wi]
	}
	nd.wAns = make([]int32, len(nd.refs))
	fill := append([]int32(nil), nd.wOff[:nw]...)
	for p, r := range nd.refs {
		nd.wAns[fill[r.worker]] = int32(p)
		fill[r.worker]++
	}
	return nd, nil
}

// TaskIndex returns the dense index of a task id, or -1.
func (ds *Dataset) TaskIndex(id core.TaskID) int {
	if i, ok := ds.taskIndex[id]; ok {
		return i
	}
	return -1
}

// WorkerIndex returns the dense index of a worker id, or -1.
func (ds *Dataset) WorkerIndex(w string) int {
	if i, ok := ds.workerIndex[w]; ok {
		return i
	}
	return -1
}

// TotalAnswers returns the number of usable answers in the dataset.
func (ds *Dataset) TotalAnswers() int { return len(ds.refs) }

// Result is the output of an inference method: per-task posteriors and
// hard labels, per-worker quality, all held as dense arrays aligned with
// the Dataset the method ran over and read by task or worker ID through
// that dataset's index. A Result is immutable once produced.
type Result struct {
	// Method is the name of the inference method that produced this.
	Method string
	// Iterations reports how many EM/gradient iterations ran (0 for
	// non-iterative methods).
	Iterations int
	// Warm carries the run's final parameters for warm-starting the next
	// run of the same method over an evolved answer set; nil for
	// non-iterative methods. See WarmState.
	Warm *WarmState

	ds       *Dataset
	post     []float64 // len(ds.TaskIDs) × K slab, one row per task
	labels   []int32   // argmax of each row
	quality  []float64 // per ds.WorkerIDs entry, in [0,1]
	easiness []float64 // per task (GLAD only)
}

// NewResult wraps the flat posterior slab (one K-wide row per ds task,
// retained, not copied) and the per-worker quality vector of a finished
// run into a Result; the hard labels are each row's argmax, ties to the
// lowest option.
func NewResult(method string, ds *Dataset, post, quality []float64, iters int) *Result {
	res := &Result{Method: method, Iterations: iters, ds: ds, post: post, quality: quality,
		labels: make([]int32, len(ds.TaskIDs))}
	K := ds.K
	for ti := range res.labels {
		res.labels[ti] = int32(stats.ArgMax(post[ti*K : ti*K+K]))
	}
	return res
}

// Dataset returns the dataset the result was computed over; its TaskIDs
// order is the order LabelAt and ConfidenceAt index.
func (r *Result) Dataset() *Dataset { return r.ds }

// LabelAt returns the hard (argmax) label of the task at dense index ti.
func (r *Result) LabelAt(ti int) int { return int(r.labels[ti]) }

// ConfidenceAt returns the posterior mass of the chosen label of the task
// at dense index ti.
func (r *Result) ConfidenceAt(ti int) float64 {
	return r.post[ti*r.ds.K+int(r.labels[ti])]
}

// Label returns the hard (argmax) label of a task, -1 when the task is
// unknown.
func (r *Result) Label(id core.TaskID) int {
	if ti := r.ds.TaskIndex(id); ti >= 0 {
		return int(r.labels[ti])
	}
	return -1
}

// PosteriorOf returns the per-option probability distribution of a task
// (a read-only view into the shared slab), nil when the task is unknown.
func (r *Result) PosteriorOf(id core.TaskID) []float64 {
	ti := r.ds.TaskIndex(id)
	if ti < 0 {
		return nil
	}
	K := r.ds.K
	return r.post[ti*K : ti*K+K : ti*K+K]
}

// Confidence returns the posterior mass of the chosen label for a task
// (0 when the task is unknown).
func (r *Result) Confidence(id core.TaskID) float64 {
	if ti := r.ds.TaskIndex(id); ti >= 0 {
		return r.ConfidenceAt(ti)
	}
	return 0
}

// Quality returns a worker's estimated accuracy in [0,1]; ok is false for
// a worker with no answer in the dataset.
func (r *Result) Quality(worker string) (q float64, ok bool) {
	if wi := r.ds.WorkerIndex(worker); wi >= 0 {
		return r.quality[wi], true
	}
	return 0, false
}

// TaskEasiness returns the inferred easiness of a task for methods that
// model difficulty (GLAD); ok is false otherwise.
func (r *Result) TaskEasiness(id core.TaskID) (float64, bool) {
	ti := r.ds.TaskIndex(id)
	if r.easiness == nil || ti < 0 {
		return 0, false
	}
	return r.easiness[ti], true
}

// Inferrer is a truth-inference method over choice-task datasets.
type Inferrer interface {
	// Name returns the method's display name.
	Name() string
	// Infer estimates labels and worker qualities for the dataset.
	Infer(ds *Dataset) (*Result, error)
}

// Accuracy compares inferred labels with the pool's planted ground truth
// over the dataset's tasks and returns the fraction correct. Tasks with
// GroundTruth < 0 are skipped.
func Accuracy(r *Result, p *core.Pool, ds *Dataset) float64 {
	total, correct := 0, 0
	for _, id := range ds.TaskIDs {
		t := p.Task(id)
		if t == nil || t.GroundTruth < 0 {
			continue
		}
		total++
		if r.Label(id) == t.GroundTruth {
			correct++
		}
	}
	if total == 0 {
		return 0
	}
	return float64(correct) / float64(total)
}
