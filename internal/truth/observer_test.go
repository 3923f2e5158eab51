package truth

import (
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/crowd"
	"repro/internal/obs"
)

// recordingObserver captures the EMObserver call stream for assertions.
type recordingObserver struct {
	mu         sync.Mutex
	iterations []float64 // per-iteration deltas, in call order
	iterSeq    []int     // the iter argument per call
	runs       int
	method     string
	runIters   int
	converged  bool
	wall       time.Duration
}

func (r *recordingObserver) ObserveEMIteration(method string, iter int, delta float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.iterations = append(r.iterations, delta)
	r.iterSeq = append(r.iterSeq, iter)
}

func (r *recordingObserver) ObserveEMRun(method string, iterations int, converged bool, wall time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.runs++
	r.method = method
	r.runIters = iterations
	r.converged = converged
	r.wall = wall
}

// TestEMObserverContract runs every instrumented kernel with a recording
// observer and checks the contract: one iteration call per EM round with
// monotonically numbered iterations, exactly one run summary whose
// iteration count matches Result.Iterations, and a non-negative wall time.
func TestEMObserverContract(t *testing.T) {
	_, ds := buildWorkload(77, 60, 15, 5, crowd.RegimeMixed, 0.3)
	for _, tc := range []struct {
		name  string
		infer func(o obs.EMObserver) (*Result, error)
	}{
		{"OneCoinEM", func(o obs.EMObserver) (*Result, error) { return OneCoinEM{Obs: o}.Infer(ds) }},
		{"DS", func(o obs.EMObserver) (*Result, error) { return DawidSkene{Obs: o}.Infer(ds) }},
		{"GLAD", func(o obs.EMObserver) (*Result, error) { return GLAD{Obs: o}.Infer(ds) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rec := &recordingObserver{}
			res, err := tc.infer(rec)
			if err != nil {
				t.Fatal(err)
			}
			if rec.runs != 1 {
				t.Fatalf("ObserveEMRun called %d times, want 1", rec.runs)
			}
			if rec.method != tc.name {
				t.Fatalf("method = %q, want %q", rec.method, tc.name)
			}
			if rec.runIters != res.Iterations {
				t.Fatalf("observer iterations = %d, Result.Iterations = %d", rec.runIters, res.Iterations)
			}
			if len(rec.iterations) != res.Iterations {
				t.Fatalf("%d iteration callbacks, want %d", len(rec.iterations), res.Iterations)
			}
			for i, it := range rec.iterSeq {
				if it != i+1 {
					t.Fatalf("iteration numbering %v not 1..n", rec.iterSeq)
				}
			}
			for _, d := range rec.iterations {
				if math.IsNaN(d) || d < 0 {
					t.Fatalf("bad convergence delta %v", d)
				}
			}
			if !rec.converged {
				t.Fatalf("run did not converge within the default cap (iters=%d)", res.Iterations)
			}
			if rec.wall < 0 {
				t.Fatalf("negative wall time %v", rec.wall)
			}
		})
	}
}

// TestEMObserverDoesNotChangeResults pins that instrumentation is purely
// observational: posteriors with and without an observer are bit-identical.
func TestEMObserverDoesNotChangeResults(t *testing.T) {
	_, ds := buildWorkload(78, 40, 12, 5, crowd.RegimeMixed, 0.3)
	plain, err := DawidSkene{}.Infer(ds)
	if err != nil {
		t.Fatal(err)
	}
	observed, err := DawidSkene{Obs: &recordingObserver{}}.Infer(ds)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Iterations != observed.Iterations {
		t.Fatalf("iterations differ: %d vs %d", plain.Iterations, observed.Iterations)
	}
	for _, id := range ds.TaskIDs {
		row, orow := plain.PosteriorOf(id), observed.PosteriorOf(id)
		for c := range row {
			if math.Float64bits(row[c]) != math.Float64bits(orow[c]) {
				t.Fatalf("task %d class %d: %v vs %v", id, c, row[c], orow[c])
			}
		}
	}
}
