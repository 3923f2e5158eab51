// Package obs is the observability substrate of crowdkit: an
// allocation-conscious metrics core (atomic counters, gauges, fixed-bucket
// histograms) behind a Registry with Prometheus text exposition, a
// lightweight span/trace facility with context-propagated request IDs, and
// the EMObserver hook the truth-inference kernels report convergence
// through.
//
// Design constraints, in order:
//
//   - Free when off. Every metric type is safe to use through a nil
//     pointer (all operations become no-ops), and a nil *Registry returns
//     nil metrics from its constructors. Instrumented code therefore needs
//     no "is observability on?" branches of its own: it records into
//     whatever handles it was built with, and the nil receiver check is
//     the entire disabled-path cost.
//   - Hot-path writes are lock-free. Counter and Gauge are single atomics;
//     Histogram.Observe is one bucket increment plus two atomic adds. The
//     registry mutex is touched only at construction and exposition time.
//   - Stdlib only, matching the repository conventions.
//
// Metric naming follows the Prometheus convention
// crowdkit_<subsystem>_<name>[_<unit>][_total] — see DESIGN.md
// § Observability for the scheme and the full metric inventory.
package obs

import (
	"math"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter. The zero value is
// ready to use; all methods are no-ops on a nil receiver, so optional
// instrumentation can hold nil Counters instead of branching.
type Counter struct {
	v atomic.Int64
}

// NewCounter returns a standalone counter (not registered anywhere).
func NewCounter() *Counter { return &Counter{} }

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n (negative n is ignored: counters only go up).
func (c *Counter) Add(n int64) {
	if c == nil || n <= 0 {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 for a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic float64 that can go up and down.
// The zero value is ready to use; methods are no-ops on a nil receiver.
type Gauge struct {
	bits atomic.Uint64
}

// NewGauge returns a standalone gauge.
func NewGauge() *Gauge { return &Gauge{} }

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add adds delta with a CAS loop.
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		v := math.Float64frombits(old) + delta
		if g.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Value returns the current value (0 for a nil gauge).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket histogram with atomic bucket counters, built
// for latency distributions: Observe is lock-free and allocation-free, and
// Quantile estimates p50/p95/p99 by linear interpolation inside the
// containing bucket. Bucket upper bounds are inclusive (v <= bound), with
// an implicit +Inf overflow bucket, matching Prometheus "le" semantics.
//
// The zero value is NOT usable (it has no buckets); construct with
// NewHistogram or Registry.Histogram. Methods are no-ops on nil.
type Histogram struct {
	bounds  []float64 // sorted ascending upper bounds
	buckets []atomic.Int64
	count   atomic.Int64
	sum     atomic.Uint64 // float64 bits
}

// DefLatencyBuckets covers request/kernel latencies from 100µs to 10s.
var DefLatencyBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
	0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// DefSimTimeBuckets covers simulated-clock spans (seconds of simulated
// time, e.g. async completion makespans) from 1s to a week.
var DefSimTimeBuckets = []float64{
	1, 10, 60, 300, 900, 3600, 4 * 3600, 24 * 3600, 7 * 24 * 3600,
}

// DefIOBuckets covers storage-path latencies (WAL appends, fsyncs) from
// 1µs — a buffered write into the page cache — up to 1s for a stalled
// disk, and assignment-policy calls, which take a few µs. DefLatencyBuckets
// starts at 100µs and would fold every append or assignment into its
// first bucket.
var DefIOBuckets = []float64{
	0.000001, 0.0000025, 0.000005, 0.00001, 0.000025, 0.00005,
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
	0.05, 0.1, 0.25, 0.5, 1,
}

// NewHistogram returns a standalone histogram over the given ascending
// upper bounds. With no bounds, DefLatencyBuckets is used.
func NewHistogram(bounds ...float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefLatencyBuckets
	}
	cp := make([]float64, len(bounds))
	copy(cp, bounds)
	return &Histogram{
		bounds:  cp,
		buckets: make([]atomic.Int64, len(cp)+1),
	}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// Linear scan: bucket counts are small (≤ ~20) and the branch
	// predictor wins over binary search at this size.
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		s := math.Float64frombits(old) + v
		if h.sum.CompareAndSwap(old, math.Float64bits(s)) {
			break
		}
	}
}

// ObserveDuration records a duration in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// Quantile estimates the q-quantile (q in [0,1]) by locating the bucket
// containing the rank and interpolating linearly inside it (the first
// bucket interpolates from 0; ranks in the +Inf overflow bucket report
// the last finite bound). Under concurrent writes the snapshot is
// approximate, like any scraped histogram.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	if rank < 1 {
		rank = 1
	}
	cum := int64(0)
	for i := range h.buckets {
		c := h.buckets[i].Load()
		if c == 0 {
			continue
		}
		if float64(cum+c) >= rank {
			if i >= len(h.bounds) {
				return h.bounds[len(h.bounds)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = h.bounds[i-1]
			}
			frac := (rank - float64(cum)) / float64(c)
			return lo + frac*(h.bounds[i]-lo)
		}
		cum += c
	}
	return h.bounds[len(h.bounds)-1]
}

// Bounds returns the bucket upper bounds (shared slice; do not mutate).
func (h *Histogram) Bounds() []float64 {
	if h == nil {
		return nil
	}
	return h.bounds
}

// BucketCounts returns a snapshot of the per-bucket (non-cumulative)
// counts, including the +Inf overflow bucket as the last element.
func (h *Histogram) BucketCounts() []int64 {
	if h == nil {
		return nil
	}
	out := make([]int64, len(h.buckets))
	for i := range h.buckets {
		out[i] = h.buckets[i].Load()
	}
	return out
}
