package truth

import (
	"math"
	"time"

	"repro/internal/obs"
	"repro/internal/stats"
)

// emDefaults bound the iterative methods.
const (
	defaultMaxIter = 100
	defaultTol     = 1e-6
	smoothing      = 0.01 // Laplace smoothing for M-steps
)

// OneCoinEM is the worker-probability model (ZenCrowd-style): each worker
// has a single reliability parameter p; a worker answers the true label
// with probability p and any specific wrong label with probability
// (1-p)/(K-1). Parameters and posteriors are estimated jointly with EM.
//
// The E-step is sharded over task ranges and the M-step over worker
// ranges (see parallel.go); results are bit-identical at any GOMAXPROCS.
type OneCoinEM struct {
	MaxIter int
	Tol     float64
	// Obs, when non-nil, receives one ObserveEMIteration per iteration
	// (with the summed L1 posterior change the stopping rule tests) and
	// one ObserveEMRun per Infer. A nil observer costs nothing: no
	// timestamps are taken and no calls are made.
	Obs obs.EMObserver
	// Warm, when non-nil and produced by a previous OneCoinEM run at the
	// same K, seeds the posteriors from the previous estimates instead of
	// vote fractions; tasks unknown to the state fall back to the cold
	// init. nil is exactly the cold start.
	Warm *WarmState
}

// Name implements Inferrer.
func (OneCoinEM) Name() string { return "OneCoinEM" }

// Infer implements Inferrer.
func (m OneCoinEM) Infer(ds *Dataset) (*Result, error) {
	maxIter, tol := m.MaxIter, m.Tol
	if maxIter <= 0 {
		maxIter = defaultMaxIter
	}
	if tol <= 0 {
		tol = defaultTol
	}
	n, nw, K := len(ds.TaskIDs), len(ds.WorkerIDs), ds.K
	k := float64(K)
	workers := kernelWorkers(len(ds.refs))

	post := make([]float64, n*K)
	seedPosteriors(ds, post, "OneCoinEM", m.Warm)
	reliability := make([]float64, nw)
	for i := range reliability {
		reliability[i] = 0.8
	}
	// Per-worker log-likelihood terms, refreshed each M-step so the
	// E-step does zero math.Log calls per answer: logLik[wi][0] is the log
	// probability of one specific wrong label, logLik[wi][1] of the right
	// one, side by side so the E-step picks between them by index.
	logLik := make([][2]float64, nw)
	prior := make([]float64, K)
	logPrior := make([]float64, K)
	deltas := make([]float64, n)
	scratch := make([]float64, workers*2*K)

	var start time.Time
	if m.Obs != nil {
		start = time.Now()
	}
	converged := false
	iters := 0
	for ; iters < maxIter; iters++ {
		// M-step: worker reliability = expected fraction of answers that
		// match the (soft) truth. Each worker's sum runs over their
		// answers in task order inside one shard.
		parallelFor(workers, nw, func(_, lo, hi int) {
			for wi := lo; wi < hi; wi++ {
				sum := 0.0
				for _, p := range ds.wAns[ds.wOff[wi]:ds.wOff[wi+1]] {
					r := &ds.refs[p]
					sum += post[int(r.task)*K+int(r.option)]
				}
				total := float64(ds.wOff[wi+1] - ds.wOff[wi])
				rel := 1 / k
				if total > 0 {
					// Clamp away from 0/1 to keep likelihoods finite.
					rel = clamp((sum+smoothing)/(total+2*smoothing), 0.01, 0.99)
				}
				reliability[wi] = rel
				logLik[wi] = [2]float64{math.Log((1 - rel) / (k - 1)), math.Log(rel)}
			}
		})
		// Class prior from posteriors: serial O(n·K) reduction.
		priorInto(prior, logPrior, post, n, K)

		// E-step: posterior over true labels, sharded by task range.
		parallelFor(workers, n, func(slot, lo, hi int) {
			buf := scratch[slot*2*K:]
			logp, np := buf[:K], buf[K:2*K]
			for ti := lo; ti < hi; ti++ {
				copy(logp, logPrior)
				for p := ds.taskOff[ti]; p < ds.taskOff[ti+1]; p++ {
					r := &ds.refs[p]
					// Whether an answer matches a class is a coin flip no
					// predictor learns, so the match selects the addend by
					// index instead of by branch: the same additions in the
					// same order, hence the same bits.
					pair := &logLik[r.worker]
					opt := int(r.option)
					for c := 0; c < K; c++ {
						hit := 0
						if c == opt {
							hit = 1
						}
						logp[c] += pair[hit]
					}
				}
				softmaxInto(np, logp)
				deltas[ti] = replaceRow(post[ti*K:ti*K+K], np)
			}
		})
		delta := sumSerial(deltas)
		if m.Obs != nil {
			m.Obs.ObserveEMIteration("OneCoinEM", iters+1, delta)
		}
		if delta < tol*float64(n) {
			iters++
			converged = true
			break
		}
	}
	if m.Obs != nil {
		m.Obs.ObserveEMRun("OneCoinEM", iters, converged, time.Since(start))
	}
	res := NewResult("OneCoinEM", ds, post, reliability, iters)
	res.Warm = &WarmState{Method: "OneCoinEM", ds: ds, post: post}
	return res, nil
}

// DawidSkene is the classic confusion-matrix EM estimator: each worker w
// has a K×K matrix T_w where T_w[c][l] = P(worker answers l | truth c).
//
// Confusion matrices live in one flat [nw·K·K] slab with a parallel slab
// of their logs, so the E-step reads precomputed log-probabilities by
// integer index. Sharding follows the same model as OneCoinEM.
type DawidSkene struct {
	MaxIter int
	Tol     float64
	// Obs follows the same contract as OneCoinEM.Obs (nil = free).
	Obs obs.EMObserver
	// Warm follows the same contract as OneCoinEM.Warm.
	Warm *WarmState
}

// Name implements Inferrer.
func (DawidSkene) Name() string { return "DS" }

// Infer implements Inferrer.
func (m DawidSkene) Infer(ds *Dataset) (*Result, error) {
	maxIter, tol := m.MaxIter, m.Tol
	if maxIter <= 0 {
		maxIter = defaultMaxIter
	}
	if tol <= 0 {
		tol = defaultTol
	}
	n, nw, K := len(ds.TaskIDs), len(ds.WorkerIDs), ds.K
	kk := K * K
	workers := kernelWorkers(len(ds.refs))

	post := make([]float64, n*K)
	seedPosteriors(ds, post, "DS", m.Warm)
	conf := make([]float64, nw*kk)    // row-major per worker: [c][l]
	logConf := make([]float64, nw*kk) // log(conf + 1e-300)
	prior := make([]float64, K)
	logPrior := make([]float64, K)
	deltas := make([]float64, n)
	scratch := make([]float64, workers*2*K)

	var start time.Time
	if m.Obs != nil {
		start = time.Now()
	}
	converged := false
	iters := 0
	for ; iters < maxIter; iters++ {
		// M-step: confusion matrices from soft counts, one worker per
		// shard slot — each matrix is zeroed, filled in task order,
		// row-normalized, and logged without leaving its shard.
		parallelFor(workers, nw, func(_, lo, hi int) {
			for wi := lo; wi < hi; wi++ {
				cm := conf[wi*kk : wi*kk+kk]
				for i := range cm {
					cm[i] = 0
				}
				for _, p := range ds.wAns[ds.wOff[wi]:ds.wOff[wi+1]] {
					r := &ds.refs[p]
					row := post[int(r.task)*K:]
					opt := int(r.option)
					for c := 0; c < K; c++ {
						cm[c*K+opt] += row[c]
					}
				}
				rowNormalizeLog(cm, logConf[wi*kk:wi*kk+kk], K, smoothing)
			}
		})
		priorInto(prior, logPrior, post, n, K)

		// E-step.
		parallelFor(workers, n, func(slot, lo, hi int) {
			buf := scratch[slot*2*K:]
			logp, np := buf[:K], buf[K:2*K]
			for ti := lo; ti < hi; ti++ {
				copy(logp, logPrior)
				for p := ds.taskOff[ti]; p < ds.taskOff[ti+1]; p++ {
					r := &ds.refs[p]
					lw := logConf[int(r.worker)*kk+int(r.option):]
					for c := 0; c < K; c++ {
						logp[c] += lw[c*K]
					}
				}
				softmaxInto(np, logp)
				deltas[ti] = replaceRow(post[ti*K:ti*K+K], np)
			}
		})
		delta := sumSerial(deltas)
		if m.Obs != nil {
			m.Obs.ObserveEMIteration("DS", iters+1, delta)
		}
		if delta < tol*float64(n) {
			iters++
			converged = true
			break
		}
	}
	if m.Obs != nil {
		m.Obs.ObserveEMRun("DS", iters, converged, time.Since(start))
	}

	// Worker quality: trace-weighted accuracy of the probability-form
	// confusion matrix under uniform class priors.
	quality := make([]float64, nw)
	for wi := range quality {
		s := 0.0
		for c := 0; c < K; c++ {
			s += conf[wi*kk+c*K+c]
		}
		quality[wi] = s / float64(K)
	}
	res := NewResult("DS", ds, post, quality, iters)
	res.Warm = &WarmState{Method: "DS", ds: ds, post: post}
	return res, nil
}

// rowNormalizeLog converts one worker's K×K soft-count matrix into
// per-true-class probabilities with Laplace smoothing (mirroring
// stats.Confusion.RowNormalize) and writes log(v+1e-300) into dst.
func rowNormalizeLog(cm, dst []float64, K int, alpha float64) {
	for c := 0; c < K; c++ {
		row := cm[c*K : c*K+K]
		total := 0.0
		for l := range row {
			row[l] += alpha
			total += row[l]
		}
		if total == 0 {
			u := 1 / float64(K)
			for l := range row {
				row[l] = u
			}
		} else {
			for l := range row {
				row[l] /= total
			}
		}
		for l := range row {
			dst[c*K+l] = math.Log(row[l] + 1e-300)
		}
	}
}

// priorInto recomputes the class prior (and its logs) from the flat
// posterior matrix: a cheap serial reduction in task order.
func priorInto(prior, logPrior, post []float64, n, K int) {
	for c := range prior {
		prior[c] = 0
	}
	for ti := 0; ti < n; ti++ {
		row := post[ti*K : ti*K+K]
		for c := 0; c < K; c++ {
			prior[c] += row[c]
		}
	}
	stats.Normalize(prior)
	for c := range prior {
		logPrior[c] = math.Log(prior[c] + 1e-300)
	}
}

// replaceRow copies np over row and returns the L1 change.
func replaceRow(row, np []float64) float64 {
	d := 0.0
	for c := range row {
		d += math.Abs(np[c] - row[c])
		row[c] = np[c]
	}
	return d
}

// sumSerial reduces per-task scratch values in task order, keeping the
// convergence test independent of shard boundaries.
func sumSerial(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// initPosteriorsInto seeds EM with normalized vote fractions; tasks with
// no answers explicitly start uniform.
func initPosteriorsInto(ds *Dataset, post []float64) {
	K := ds.K
	for ti := range ds.TaskIDs {
		initPosteriorRow(ds, ti, post[ti*K:ti*K+K])
	}
}

// initPosteriorRow writes the cold-start posterior of one task: its
// normalized vote fractions, uniform when it has no answers.
func initPosteriorRow(ds *Dataset, ti int, row []float64) {
	lo, hi := ds.taskOff[ti], ds.taskOff[ti+1]
	if lo == hi {
		u := 1 / float64(len(row))
		for c := range row {
			row[c] = u
		}
		return
	}
	for c := range row {
		row[c] = 0
	}
	for p := lo; p < hi; p++ {
		row[ds.refs[p].option]++
	}
	total := float64(hi - lo)
	for c := range row {
		row[c] /= total
	}
}

// softmaxInto exponentiates and normalizes log-probabilities stably,
// writing the distribution into dst without allocating.
func softmaxInto(dst, logp []float64) {
	max := logp[0]
	for _, v := range logp[1:] {
		if v > max {
			max = v
		}
	}
	sum := 0.0
	for i, v := range logp {
		dst[i] = math.Exp(v - max)
		sum += dst[i]
	}
	for i := range dst {
		dst[i] /= sum
	}
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
