package main

import (
	"math"
	"sort"
)

// tailCandidates are the percentiles a timing's tail may be named after,
// lowest first. The list stops at p95: on the 2-core reference box a p99
// moved by more than a tenth between runs of the same code, too much to
// put a regression bound on, so p99 is reported beside the tail (as
// loadgen.op_p99_ms) and never as the tail.
var tailCandidates = []struct {
	name string
	p    float64
}{{"p75", 75}, {"p90", 90}, {"p95", 95}}

// minBeyond is how many samples must lie beyond a percentile for it to be
// reported: a p99 over 200 samples is two points, not a measurement.
const minBeyond = 10

// tailPercentile names the highest candidate percentile that still has
// minBeyond samples beyond it; with too few samples for any, the tail is
// the maximum.
func tailPercentile(n int) (name string, p float64) {
	name, p = "max", 100
	for _, c := range tailCandidates {
		if float64(n)*(100-c.p) >= minBeyond*100 {
			name, p = c.name, c.p
		}
	}
	return name, p
}

// percentile is the nearest-rank percentile of sorted (ascending) samples.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// summary is how every timing is reported: the median, the named tail,
// and the sample count they rest on.
type summary struct {
	N        int     `json:"n"`
	P50      float64 `json:"p50"`
	TailName string  `json:"tail_name"`
	Tail     float64 `json:"tail"`
	Mean     float64 `json:"mean"`
	Min      float64 `json:"min"`
	Max      float64 `json:"max"`
	P99      float64 `json:"p99"`
}

func summarize(samples []float64) summary {
	if len(samples) == 0 {
		return summary{TailName: "max"}
	}
	s := sortedCopy(samples)
	name, p := tailPercentile(len(s))
	return summary{
		N: len(s), P50: percentile(s, 50), TailName: name, Tail: percentile(s, p),
		Mean: meanOf(s), Min: s[0], Max: s[len(s)-1], P99: percentile(s, 99),
	}
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// pct is the p-th percentile of unsorted samples (0 when empty).
func pct(v []float64, p float64) float64 { return percentile(sortedCopy(v), p) }

func meanOf(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

func median(v []float64) float64 {
	s := sortedCopy(v)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles reproduces Python's statistics.quantiles(v, n=4) (the
// exclusive method), which is what the acceptance procedure uses; it
// needs at least two values.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := sortedCopy(v)
	m := len(s)
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spreadShare is the inter-quartile distance as a share of the median
// (0 with fewer than two values or a zero median).
func spreadShare(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	q1, _, q3 := quartiles(v)
	m := median(v)
	if m == 0 {
		return 0
	}
	return math.Abs(q3-q1) / math.Abs(m)
}

// rng is splitmix64: tiny, seedable, and fixed by this file rather than
// by the toolchain's math/rand, so a seed names the same inputs forever.
type rng struct{ s uint64 }

func newRNG(seed uint64) *rng { return &rng{s: seed} }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float returns a uniform value in (0,1].
func (r *rng) float() float64 { return (float64(r.next()>>11) + 1) / (1 << 53) }

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// exp returns an exponential variate with the given mean.
func (r *rng) exp(mean float64) float64 { return -mean * math.Log(r.float()) }

// lognormal returns a variate whose median is med and whose log has
// standard deviation sigma (Box-Muller).
func (r *rng) lognormal(med, sigma float64) float64 {
	z := math.Sqrt(-2*math.Log(r.float())) * math.Cos(2*math.Pi*r.float())
	return med * math.Exp(sigma*z)
}

// mix hashes its arguments into one well-spread 64-bit value; the
// generator uses it wherever an input must depend on (seed, task, worker)
// but not on the order requests happened to interleave in.
func mix(vs ...uint64) uint64 {
	r := rng{s: 0x6c6f616467656e} // "loadgen"
	h := r.next()
	for _, v := range vs {
		r.s = h ^ v
		h = r.next()
	}
	return h
}

func fnv64(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
