package truth

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/crowd"
)

// forceWorkers pins the EM kernels to exactly w goroutines regardless of
// dataset size (w == 1 with a huge threshold is the pure serial path) and
// returns a restore func.
func forceWorkers(w int) func() {
	oldPar, oldThr := inferParallelism, serialAnswerThreshold
	inferParallelism = w
	if w == 1 {
		serialAnswerThreshold = math.MaxInt
	} else {
		serialAnswerThreshold = 0
	}
	return func() {
		inferParallelism, serialAnswerThreshold = oldPar, oldThr
	}
}

// qualityOf reads a worker's quality, failing the test for a worker the
// result does not know.
func qualityOf(t *testing.T, r *Result, w string) float64 {
	t.Helper()
	q, ok := r.Quality(w)
	if !ok {
		t.Fatalf("%s: no quality for worker %s", r.Method, w)
	}
	return q
}

func sameResult(t *testing.T, method string, workers int, ref, got *Result, ds *Dataset) {
	t.Helper()
	if ref.Iterations != got.Iterations {
		t.Fatalf("%s workers=%d: iterations %d != serial %d",
			method, workers, got.Iterations, ref.Iterations)
	}
	for _, id := range ds.TaskIDs {
		if ref.Label(id) != got.Label(id) {
			t.Fatalf("%s workers=%d: task %d label %d != serial %d",
				method, workers, id, got.Label(id), ref.Label(id))
		}
		rp, gp := ref.PosteriorOf(id), got.PosteriorOf(id)
		for c := range rp {
			if math.Float64bits(rp[c]) != math.Float64bits(gp[c]) {
				t.Fatalf("%s workers=%d: task %d posterior[%d] %v != serial %v (not bit-identical)",
					method, workers, id, c, gp[c], rp[c])
			}
		}
	}
	for _, w := range ds.WorkerIDs {
		rq, gq := qualityOf(t, ref, w), qualityOf(t, got, w)
		if math.Float64bits(rq) != math.Float64bits(gq) {
			t.Fatalf("%s workers=%d: worker %s quality %v != serial %v",
				method, workers, w, gq, rq)
		}
	}
}

// TestParallelInferenceMatchesSerial is the determinism matrix: on a
// seeded 2k-task dataset, every EM kernel must produce bit-identical
// posteriors, labels, qualities, and iteration counts at 1, 2, 4, and 8
// goroutines. Shard boundaries never cross a floating-point accumulator
// (see parallel.go), so this holds exactly, not approximately. CI runs it
// under -race.
func TestParallelInferenceMatchesSerial(t *testing.T) {
	_, ds := buildWorkload(7001, 2000, 50, 5, crowd.RegimeMixed, 0.3)
	methods := []Inferrer{
		OneCoinEM{MaxIter: 12},
		DawidSkene{MaxIter: 12},
		GLAD{MaxIter: 6},
	}
	for _, inf := range methods {
		restore := forceWorkers(1)
		ref, err := inf.Infer(ds)
		restore()
		if err != nil {
			t.Fatalf("%s serial: %v", inf.Name(), err)
		}
		for _, w := range []int{2, 4, 8} {
			restore := forceWorkers(w)
			got, err := inf.Infer(ds)
			restore()
			if err != nil {
				t.Fatalf("%s workers=%d: %v", inf.Name(), w, err)
			}
			sameResult(t, inf.Name(), w, ref, got, ds)
		}
	}
}

// TestUnansweredTaskStartsUniform is the regression test for
// initPosteriors: a task with no answers must seed EM with an exactly
// uniform posterior, and every method must still return a valid
// distribution for it (GLAD, whose class prior is fixed uniform, must
// return exactly uniform).
func TestUnansweredTaskStartsUniform(t *testing.T) {
	pool := core.NewPool()
	a := pool.MustAdd(&core.Task{ID: 1, Kind: core.SingleChoice, Options: []string{"x", "y", "z"}, GroundTruth: 0})
	b := pool.MustAdd(&core.Task{ID: 2, Kind: core.SingleChoice, Options: []string{"x", "y", "z"}, GroundTruth: 1})
	unanswered := pool.MustAdd(&core.Task{ID: 3, Kind: core.SingleChoice, Options: []string{"x", "y", "z"}, GroundTruth: 2})
	for _, w := range []string{"w1", "w2", "w3"} {
		pool.Record(core.Answer{Task: a, Worker: w, Option: 0})
		pool.Record(core.Answer{Task: b, Worker: w, Option: 1})
	}
	ds, err := FromPool(pool, pool.TaskIDs())
	if err != nil {
		t.Fatal(err)
	}

	// The EM seed itself must be exactly uniform for the unanswered task.
	post := make([]float64, len(ds.TaskIDs)*ds.K)
	initPosteriorsInto(ds, post)
	ti := ds.TaskIndex(unanswered)
	for c := 0; c < ds.K; c++ {
		if got := post[ti*ds.K+c]; got != 1.0/3.0 {
			t.Fatalf("seed posterior[%d] = %v, want exactly 1/3", c, got)
		}
	}

	for _, inf := range []Inferrer{OneCoinEM{}, DawidSkene{}, GLAD{}} {
		res, err := inf.Infer(ds)
		if err != nil {
			t.Fatalf("%s: %v", inf.Name(), err)
		}
		p := res.PosteriorOf(unanswered)
		sum := 0.0
		for _, v := range p {
			if math.IsNaN(v) || v < 0 || v > 1 {
				t.Fatalf("%s: degenerate posterior %v for unanswered task", inf.Name(), p)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("%s: unanswered posterior sums to %v", inf.Name(), sum)
		}
		if lbl := res.Label(unanswered); lbl < 0 || lbl >= ds.K {
			t.Fatalf("%s: label %d out of range", inf.Name(), lbl)
		}
	}

	// GLAD keeps a fixed uniform class prior, so with no evidence the
	// final posterior is uniform too.
	res, err := GLAD{}.Infer(ds)
	if err != nil {
		t.Fatal(err)
	}
	p := res.PosteriorOf(unanswered)
	for c := 1; c < len(p); c++ {
		if p[c] != p[0] {
			t.Fatalf("GLAD unanswered posterior not uniform: %v", p)
		}
	}
}

// TestGLADReportsEMIterations pins the Iterations contract: like the
// other EM methods, GLAD reports EM rounds (not internal gradient steps).
func TestGLADReportsEMIterations(t *testing.T) {
	_, ds := buildWorkload(7003, 60, 10, 3, crowd.RegimeMixed, 0.3)
	res, err := GLAD{MaxIter: 4, GradSteps: 7}.Infer(ds)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations < 1 || res.Iterations > 4 {
		t.Fatalf("GLAD iterations = %d, want within [1, MaxIter]", res.Iterations)
	}
}
