// Package assign implements task assignment policies — the "which task
// should this worker do next" half of quality control.
//
// The survey distinguishes offline redundancy (give every task k answers)
// from online, quality-aware assignment that spends marginal answers where
// they help most. This package provides both ends of that spectrum:
//
//   - Random — uniform over eligible tasks (the open-platform default).
//   - FewestAnswers — balance redundancy across tasks.
//   - Uncertainty — maximize posterior entropy of the chosen task.
//   - QASCA — expected-accuracy-gain assignment in the style of QASCA:
//     choose the task whose expected posterior confidence improves most if
//     this worker (with their estimated quality) answers it.
//
// All policies implement core.Assigner and draw tie-breaking randomness
// from an explicit seeded RNG for reproducibility.
package assign

import (
	"math"

	"repro/internal/core"
	"repro/internal/stats"
)

// QualitySource estimates a worker's accuracy in [0,1]; used by
// quality-aware policies. Implementations typically wrap golden-task
// screens or a periodically refreshed truth-inference result.
type QualitySource func(worker string) float64

// ConstantQuality returns a QualitySource that reports q for everyone.
func ConstantQuality(q float64) QualitySource {
	return func(string) float64 { return q }
}

// Random assigns a uniformly random eligible task.
type Random struct {
	RNG *stats.RNG
}

// Assign implements core.Assigner.
func (r *Random) Assign(p *core.Pool, worker string) (core.TaskID, bool) {
	el := p.EligibleFor(worker)
	if len(el) == 0 {
		return 0, false
	}
	return el[r.RNG.Intn(len(el))], true
}

// FewestAnswers assigns the eligible task with the fewest in-flight
// answers (committed answers plus outstanding leases), breaking ties by
// insertion order. This realizes classic redundancy-k collection with
// balanced progress. Counting leases steers assignments away from tasks
// already handed to another worker, and an expired lease drops the task
// back to the front of the queue, so reclaimed work is re-issued first.
// On a pool without leases InFlight equals AnswerCount, so behavior is
// identical to the pre-lease policy. The choice is Pool.LeastInFlight's
// single scan, which allocates nothing.
type FewestAnswers struct{}

// Assign implements core.Assigner.
func (FewestAnswers) Assign(p *core.Pool, worker string) (core.TaskID, bool) {
	return p.LeastInFlight(worker)
}

// Uncertainty assigns the eligible task whose current vote distribution
// has the highest Shannon entropy (with Laplace smoothing), i.e. the task
// the crowd is most confused about. Ties break by fewest answers, then
// insertion order.
type Uncertainty struct{}

// Assign implements core.Assigner.
func (Uncertainty) Assign(p *core.Pool, worker string) (core.TaskID, bool) {
	el := p.EligibleFor(worker)
	if len(el) == 0 {
		return 0, false
	}
	best := el[0]
	bestH := smoothedEntropy(p, best)
	for _, id := range el[1:] {
		h := smoothedEntropy(p, id)
		if h > bestH+1e-12 ||
			(math.Abs(h-bestH) <= 1e-12 && p.AnswerCount(id) < p.AnswerCount(best)) {
			best, bestH = id, h
		}
	}
	return best, true
}

func smoothedEntropy(p *core.Pool, id core.TaskID) float64 {
	votes := p.OptionVotes(id)
	if votes == nil {
		return 0
	}
	ps := make([]float64, len(votes))
	for i, v := range votes {
		ps[i] = float64(v) + 1 // Laplace
	}
	return stats.Entropy(ps)
}

// QASCA is a quality-aware online assigner in the spirit of QASCA
// (Zheng et al.): it maintains a one-coin posterior per task from the
// answers seen so far and the workers' estimated qualities, and assigns
// the arriving worker the task with the largest expected gain in posterior
// confidence if that worker answers.
type QASCA struct {
	// Quality estimates worker accuracy; defaults to 0.7 for everyone.
	Quality QualitySource
	// Candidates caps how many eligible tasks are scored per assignment
	// (the lowest-confidence ones are scored); <= 0 means score all.
	// QASCA's published system uses a similar pruning to stay online.
	Candidates int
}

// qascaScratch holds the per-Assign-call buffers the scoring loops
// reuse, so scoring E eligible tasks costs O(1) allocations instead of
// O(E·K). It lives on the caller's stack frame rather than on QASCA
// itself because one QASCA is shared by concurrent server requests.
type qascaScratch struct {
	post, np []float64
}

func (s *qascaScratch) sized(buf *[]float64, k int) []float64 {
	if cap(*buf) < k {
		*buf = make([]float64, k)
	}
	*buf = (*buf)[:k]
	return *buf
}

// Assign implements core.Assigner.
func (q *QASCA) Assign(p *core.Pool, worker string) (core.TaskID, bool) {
	el := p.EligibleFor(worker)
	if len(el) == 0 {
		return 0, false
	}
	quality := q.Quality
	if quality == nil {
		quality = ConstantQuality(0.7)
	}
	wq := clamp01(quality(worker))
	var sc qascaScratch

	cand := el
	if q.Candidates > 0 && len(el) > q.Candidates {
		// Score only the least-confident candidates.
		type scored struct {
			id   core.TaskID
			conf float64
		}
		ss := make([]scored, len(el))
		for i, id := range el {
			post := q.posterior(p, id, quality, &sc)
			ss[i] = scored{id, maxOf(post)}
		}
		// Partial selection of the lowest-confidence Candidates tasks.
		for i := 0; i < q.Candidates; i++ {
			min := i
			for j := i + 1; j < len(ss); j++ {
				if ss[j].conf < ss[min].conf {
					min = j
				}
			}
			ss[i], ss[min] = ss[min], ss[i]
		}
		cand = make([]core.TaskID, q.Candidates)
		for i := 0; i < q.Candidates; i++ {
			cand[i] = ss[i].id
		}
	}

	best := cand[0]
	bestGain := math.Inf(-1)
	for _, id := range cand {
		gain := q.expectedGain(p, id, wq, quality, &sc)
		if gain > bestGain {
			best, bestGain = id, gain
		}
	}
	return best, true
}

// posterior computes the one-coin posterior over options for a task given
// the answers so far and the quality source, into sc's reused buffer. The
// returned slice is valid until the next posterior call on sc.
func (q *QASCA) posterior(p *core.Pool, id core.TaskID, quality QualitySource, sc *qascaScratch) []float64 {
	t := p.Task(id)
	k := len(t.Options)
	if k == 0 {
		return nil
	}
	logp := sc.sized(&sc.post, k)
	for c := range logp {
		logp[c] = 0
	}
	for _, a := range p.Answers(id) {
		if a.Option < 0 || a.Option >= k {
			continue
		}
		wq := clamp01(quality(a.Worker))
		lRight := math.Log(wq + 1e-9)
		lWrong := math.Log((1-wq)/float64(k-1) + 1e-9)
		for c := 0; c < k; c++ {
			if c == a.Option {
				logp[c] += lRight
			} else {
				logp[c] += lWrong
			}
		}
	}
	softmaxInPlace(logp)
	return logp
}

// expectedGain returns the expected increase in the task's posterior max
// (confidence) if the worker with quality wq answers it. The expectation
// is over the worker's answer under the current posterior.
func (q *QASCA) expectedGain(p *core.Pool, id core.TaskID, wq float64, quality QualitySource, sc *qascaScratch) float64 {
	t := p.Task(id)
	k := len(t.Options)
	if k < 2 {
		return 0
	}
	post := q.posterior(p, id, quality, sc)
	before := maxOf(post)
	wrong := (1 - wq) / float64(k-1)

	// P(worker answers l) = sum_c post[c] * P(answer=l | truth=c).
	expected := 0.0
	np := sc.sized(&sc.np, k)
	for l := 0; l < k; l++ {
		pl := 0.0
		for c := 0; c < k; c++ {
			if c == l {
				pl += post[c] * wq
			} else {
				pl += post[c] * wrong
			}
		}
		if pl == 0 {
			continue
		}
		// Posterior after observing answer l.
		for c := 0; c < k; c++ {
			if c == l {
				np[c] = post[c] * wq
			} else {
				np[c] = post[c] * wrong
			}
		}
		stats.Normalize(np)
		expected += pl * maxOf(np)
	}
	return expected - before
}

func maxOf(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

func clamp01(v float64) float64 {
	// Keep strictly inside (1/k, 1) territory handled by callers; here we
	// just bound away from the degenerate endpoints.
	if v < 0.01 {
		return 0.01
	}
	if v > 0.99 {
		return 0.99
	}
	return v
}

// softmaxInPlace exponentiates and normalizes log-probabilities stably,
// overwriting the input.
func softmaxInPlace(logp []float64) {
	if len(logp) == 0 {
		return
	}
	max := logp[0]
	for _, v := range logp[1:] {
		if v > max {
			max = v
		}
	}
	sum := 0.0
	for i, v := range logp {
		logp[i] = math.Exp(v - max)
		sum += logp[i]
	}
	for i := range logp {
		logp[i] /= sum
	}
}

// ConfidenceStopper closes tasks whose one-coin posterior confidence
// reaches Threshold, while enforcing MinAnswers. Call Sweep between
// platform rounds; it returns how many tasks it closed.
type ConfidenceStopper struct {
	Threshold  float64
	MinAnswers int
	Quality    QualitySource
}

// Sweep closes all open tasks that meet the stopping condition.
func (s *ConfidenceStopper) Sweep(p *core.Pool) int {
	quality := s.Quality
	if quality == nil {
		quality = ConstantQuality(0.7)
	}
	q := &QASCA{Quality: quality}
	var sc qascaScratch
	closed := 0
	for _, id := range p.OpenTasks() {
		if p.AnswerCount(id) < s.MinAnswers {
			continue
		}
		post := q.posterior(p, id, quality, &sc)
		if len(post) == 0 {
			continue
		}
		if maxOf(post) >= s.Threshold {
			p.Close(id)
			closed++
		}
	}
	return closed
}
