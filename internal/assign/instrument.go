package assign

import (
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// Instrument wraps an assignment policy with observability: every Assign
// call is counted and timed, and calls that find no eligible task are
// counted separately as misses. Series carry a policy label, so two
// instrumented policies (say FewestAnswers serving and Uncertainty in a
// shadow experiment) stay distinguishable:
//
//	crowdkit_assign_requests_total{policy="..."}  Assign calls
//	crowdkit_assign_misses_total{policy="..."}    calls returning ok=false
//	crowdkit_assign_seconds{policy="..."}         per-call latency histogram
//
// With a nil registry the wrapper still works and costs only the nil-metric
// checks; pass the policy through unwrapped when even that matters.
func Instrument(policy core.Assigner, reg *obs.Registry, name string) core.Assigner {
	pl := obs.L("policy", name)
	return &instrumented{
		inner:    policy,
		requests: reg.Counter("crowdkit_assign_requests_total", pl),
		misses:   reg.Counter("crowdkit_assign_misses_total", pl),
		latency:  reg.Histogram("crowdkit_assign_seconds", obs.DefIOBuckets, pl),
	}
}

type instrumented struct {
	inner    core.Assigner
	requests *obs.Counter
	misses   *obs.Counter
	latency  *obs.Histogram
}

// Assign implements core.Assigner. The policy runs under the pool lock,
// so the recorded latency is pure policy cost (eligibility scan + scoring),
// not lock wait.
func (a *instrumented) Assign(p *core.Pool, worker string) (core.TaskID, bool) {
	var start time.Time
	if a.latency != nil {
		start = time.Now()
	}
	id, ok := a.inner.Assign(p, worker)
	if a.latency != nil {
		a.latency.ObserveDuration(time.Since(start))
	}
	a.requests.Inc()
	if !ok {
		a.misses.Inc()
	}
	return id, ok
}
