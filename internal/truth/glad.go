package truth

import (
	"math"
	"time"

	"repro/internal/obs"
)

// GLAD implements the Whitehill et al. model: the probability that worker
// w answers a task t correctly is sigmoid(alpha_w * beta_t), where alpha
// is worker ability and beta > 0 is task easiness (parameterized as
// exp(b) for unconstrained optimization). Wrong answers spread uniformly
// over the remaining K-1 options. Estimation is EM with a gradient-ascent
// M-step and Gaussian priors alpha ~ N(1,1), b ~ N(0,1).
//
// The gradient M-step runs in two sharded passes: a task-major pass that
// stores each answer's gradient contribution in a flat per-answer scratch
// slab and accumulates the per-task easiness gradients, then a
// worker-major pass that folds the per-answer contributions into each
// worker's ability gradient in task order. No floating-point accumulator
// crosses a shard boundary, so results are bit-identical to the serial
// path at any GOMAXPROCS.
type GLAD struct {
	MaxIter   int
	Tol       float64
	GradSteps int     // gradient steps per M-step (default 10)
	LearnRate float64 // default 0.3
	// Obs follows the same contract as OneCoinEM.Obs (nil = free).
	Obs obs.EMObserver
	// Warm follows the same contract as OneCoinEM.Warm; GLAD additionally
	// seeds worker abilities and task easiness from the state, since its
	// gradient M-step continues from the current parameters instead of
	// re-deriving them from the posteriors.
	Warm *WarmState
}

// Name implements Inferrer.
func (GLAD) Name() string { return "GLAD" }

// Infer implements Inferrer.
func (m GLAD) Infer(ds *Dataset) (*Result, error) {
	maxIter, tol := m.MaxIter, m.Tol
	if maxIter <= 0 {
		maxIter = 50
	}
	if tol <= 0 {
		tol = defaultTol
	}
	gradSteps := m.GradSteps
	if gradSteps <= 0 {
		gradSteps = 10
	}
	lr := m.LearnRate
	if lr <= 0 {
		lr = 0.3
	}
	n, nw, K := len(ds.TaskIDs), len(ds.WorkerIDs), ds.K
	km1 := float64(K - 1)
	workers := kernelWorkers(len(ds.refs))

	post := make([]float64, n*K)
	warmed := seedPosteriors(ds, post, "GLAD", m.Warm)
	alpha := make([]float64, nw) // worker abilities
	for i := range alpha {
		alpha[i] = 1
	}
	logBeta := make([]float64, n) // task log-easiness
	if warmed {
		seedByIndex(alpha, m.Warm.alpha, ds.WorkerIDs, m.Warm.ds.WorkerIDs, m.Warm.ds.WorkerIndex)
		seedByIndex(logBeta, m.Warm.logBeta, ds.TaskIDs, m.Warm.ds.TaskIDs, m.Warm.ds.TaskIndex)
	}
	// The class prior stays fixed and uniform, as in the original GLAD
	// model. Re-estimating it is unidentifiable at low redundancy: a
	// slight imbalance feeds back through the E-step and collapses every
	// label onto one class.
	logPrior := make([]float64, K)
	for c := range logPrior {
		logPrior[c] = math.Log(1/float64(K) + 1e-300)
	}

	// Scratch reused across every gradient step and iteration.
	aContrib := make([]float64, len(ds.refs)) // per-answer gradX·beta
	gBeta := make([]float64, n)
	deltas := make([]float64, n)
	scratch := make([]float64, workers*2*K)

	var start time.Time
	if m.Obs != nil {
		start = time.Now()
	}
	converged := false
	iters := 0
	for ; iters < maxIter; iters++ {
		// M-step: gradient ascent on the expected complete log-likelihood
		// with respect to alpha and logBeta. Data gradients are averaged
		// per parameter (each worker/task sees a mean over its answers) so
		// step sizes stay bounded regardless of answer counts.
		for step := 0; step < gradSteps; step++ {
			// Pass 1 (task-major): per-answer gradient contributions and
			// per-task easiness gradients.
			parallelFor(workers, n, func(_, lo, hi int) {
				for ti := lo; ti < hi; ti++ {
					beta := math.Exp(logBeta[ti])
					row := post[ti*K : ti*K+K]
					gB := 0.0
					for p := ds.taskOff[ti]; p < ds.taskOff[ti+1]; p++ {
						r := &ds.refs[p]
						a := alpha[r.worker]
						s := sigmoid(a * beta)
						// d/dx of expected log-likelihood contribution.
						gradX := 0.0
						opt := int(r.option)
						for c := 0; c < K; c++ {
							q := row[c]
							if q == 0 {
								continue
							}
							if opt == c {
								gradX += q * (1 - s)
							} else {
								gradX -= q * s
							}
						}
						aContrib[p] = gradX * beta
						gB += gradX * a * beta
					}
					gBeta[ti] = gB
				}
			})
			// Pass 2 (worker-major): ability gradients and updates.
			parallelFor(workers, nw, func(_, lo, hi int) {
				for wi := lo; wi < hi; wi++ {
					g := -(alpha[wi] - 1) * 0.1 // weak Gaussian prior toward 1
					if cnt := ds.wOff[wi+1] - ds.wOff[wi]; cnt > 0 {
						sum := 0.0
						for _, p := range ds.wAns[ds.wOff[wi]:ds.wOff[wi+1]] {
							sum += aContrib[p]
						}
						g += sum / float64(cnt)
					}
					alpha[wi] = clamp(alpha[wi]+lr*g, -6, 6)
				}
			})
			// Easiness updates: per task, O(n) serial.
			for ti := 0; ti < n; ti++ {
				g := -logBeta[ti] * 0.1 // weak Gaussian prior toward 0
				if cnt := ds.taskOff[ti+1] - ds.taskOff[ti]; cnt > 0 {
					g += gBeta[ti] / float64(cnt)
				}
				logBeta[ti] = clamp(logBeta[ti]+lr*g, -3, 3)
			}
		}

		// E-step.
		parallelFor(workers, n, func(slot, lo, hi int) {
			buf := scratch[slot*2*K:]
			logp, np := buf[:K], buf[K:2*K]
			for ti := lo; ti < hi; ti++ {
				beta := math.Exp(logBeta[ti])
				copy(logp, logPrior)
				for p := ds.taskOff[ti]; p < ds.taskOff[ti+1]; p++ {
					r := &ds.refs[p]
					s := clamp(sigmoid(alpha[r.worker]*beta), 1e-9, 1-1e-9)
					ls, lw := math.Log(s), math.Log((1-s)/km1)
					opt := int(r.option)
					for c := 0; c < K; c++ {
						if c == opt {
							logp[c] += ls
						} else {
							logp[c] += lw
						}
					}
				}
				softmaxInto(np, logp)
				deltas[ti] = replaceRow(post[ti*K:ti*K+K], np)
			}
		})
		delta := sumSerial(deltas)
		if m.Obs != nil {
			m.Obs.ObserveEMIteration("GLAD", iters+1, delta)
		}
		if delta < tol*float64(n) {
			iters++
			converged = true
			break
		}
	}
	if m.Obs != nil {
		m.Obs.ObserveEMRun("GLAD", iters, converged, time.Since(start))
	}

	// Worker quality: average modeled correctness over the tasks each
	// worker actually answered. Iterations reports EM rounds, consistent
	// with the other EM methods (gradient steps are internal).
	quality := make([]float64, nw)
	betas := make([]float64, n)
	for ti := range betas {
		betas[ti] = math.Exp(logBeta[ti])
	}
	for wi := range quality {
		lo, hi := ds.wOff[wi], ds.wOff[wi+1]
		if lo == hi {
			quality[wi] = 0.5
			continue
		}
		sum := 0.0
		for _, p := range ds.wAns[lo:hi] {
			sum += sigmoid(alpha[wi] * betas[ds.refs[p].task])
		}
		quality[wi] = sum / float64(hi-lo)
	}
	res := NewResult("GLAD", ds, post, quality, iters)
	res.easiness = betas // inferred difficulty, for diagnostics via TaskEasiness
	res.Warm = &WarmState{Method: "GLAD", ds: ds, post: post, alpha: alpha, logBeta: logBeta}
	return res, nil
}

func sigmoid(x float64) float64 { return 1 / (1 + math.Exp(-x)) }
