package truth

// WarmState carries the converged parameters of one inference run forward
// into the next, so steady-state serving re-estimates from where the last
// run stopped instead of from scratch. The truth-inference loop of the
// survey is iterative by design — answers stream in, estimates are
// refined — and between two refreshes the answer set typically changes by
// a small delta, so the previous fixed point is an excellent starting
// point: EM from a warm seed converges in a handful of iterations where a
// cold start pays the full schedule.
//
// The state is the producing run's dense arrays plus the Dataset that
// indexes them, so it seeds any later Dataset for the same (method,
// option-count) group even after new tasks, new workers, or new answers
// appeared: entities unknown to the warm state fall back to the cold
// initialization, entity by entity. A later Dataset that shares the
// producing one's task (or worker) slice — every AppendDelta descendant
// does — has the same dense indices, and is seeded by one copy of the
// array instead of a lookup per entity.
//
// A WarmState is immutable once produced (its arrays alias the producing
// Result's), and seeding never mutates it, so one state may seed
// concurrent runs. Every iterative Infer sets Result.Warm; callers that
// do not want warm starting simply never pass it back in.
type WarmState struct {
	// Method names the producing kernel (Inferrer.Name). Kernels ignore a
	// warm state from a different method: the posterior semantics agree,
	// but the auxiliary parameters (confusion vs. ability) do not.
	Method string

	ds      *Dataset  // indexes the arrays below; a different K invalidates the state
	post    []float64 // label distributions at the end of the run, one K-wide row per task
	alpha   []float64 // GLAD ability per worker (GLAD only)
	logBeta []float64 // GLAD log-easiness per task (GLAD only)
}

// usable reports whether the state can seed a run of the given method
// over ds.
func (ws *WarmState) usable(method string, ds *Dataset) bool {
	return ws != nil && ws.Method == method && ws.ds.K == ds.K
}

// sameSlice reports whether a and b are one slice: equal dense indices
// without comparing a single element.
func sameSlice[T any](a, b []T) bool {
	return len(a) == len(b) && len(a) > 0 && &a[0] == &b[0]
}

// seedPosteriors fills the flat posterior slab from the warm state where
// it knows the task, with the cold per-task initialization (normalized
// vote fractions, uniform when unanswered) as the fallback; warm == nil
// is exactly the cold start. It reports whether any warm row was used.
func seedPosteriors(ds *Dataset, post []float64, method string, warm *WarmState) bool {
	if !warm.usable(method, ds) {
		initPosteriorsInto(ds, post)
		return false
	}
	if sameSlice(ds.TaskIDs, warm.ds.TaskIDs) {
		copy(post, warm.post)
		return true
	}
	K := ds.K
	hit := false
	for ti, id := range ds.TaskIDs {
		row := post[ti*K : ti*K+K]
		if pi := warm.ds.TaskIndex(id); pi >= 0 {
			copy(row, warm.post[pi*K:pi*K+K])
			hit = true
			continue
		}
		initPosteriorRow(ds, ti, row)
	}
	return hit
}

// seedByIndex overwrites dst — one parameter per entry of ids — with the
// warm parameters prev, indexed like prevIDs, for every entity the warm
// state knows; the others keep dst's cold value.
func seedByIndex[ID any](dst, prev []float64, ids, prevIDs []ID, prevIndex func(ID) int) {
	if sameSlice(ids, prevIDs) {
		copy(dst, prev)
		return
	}
	for i, id := range ids {
		if pi := prevIndex(id); pi >= 0 {
			dst[i] = prev[pi]
		}
	}
}
