package assign

import (
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/stats"
)

// TestInstrumentCountsRequestsAndMisses wraps FewestAnswers, drains a
// small pool, and checks the labeled counters: every Assign call is
// counted, misses only when the pool has nothing eligible, and the
// latency histogram saw every call in buckets fine enough to resolve it.
func TestInstrumentCountsRequestsAndMisses(t *testing.T) {
	rng := stats.NewRNG(5)
	p := binaryPool(3, rng, 0.2)
	reg := obs.NewRegistry()
	a := Instrument(FewestAnswers{}, reg, "fewest-answers")

	hits, misses := 0, 0
	for i := 0; i < 5; i++ {
		id, ok := a.Assign(p, "solo")
		if !ok {
			misses++
			continue
		}
		hits++
		if err := p.Record(core.Answer{Task: id, Worker: "solo", Option: 0}); err != nil {
			t.Fatal(err)
		}
	}
	if hits != 3 || misses != 2 {
		t.Fatalf("hits=%d misses=%d, want 3 and 2", hits, misses)
	}

	snap := reg.Snapshot()
	pl := `{policy="fewest-answers"}`
	if got := snap["crowdkit_assign_requests_total"+pl]; got != 5 {
		t.Fatalf("requests = %v, want 5", got)
	}
	if got := snap["crowdkit_assign_misses_total"+pl]; got != 2 {
		t.Fatalf("misses = %v, want 2", got)
	}
	if got := snap["crowdkit_assign_seconds_count"+pl]; got != 5 {
		t.Fatalf("latency observations = %v, want 5", got)
	}

	// An assignment on a small pool takes well under 100µs, and the
	// histogram must resolve that: at least one call lands in a bucket
	// whose upper bound is below 100µs.
	h := reg.Histogram("crowdkit_assign_seconds", nil, obs.L("policy", "fewest-answers"))
	fast := int64(0)
	for i, b := range h.Bounds() {
		if b < 100e-6 {
			fast += h.BucketCounts()[i]
		}
	}
	if fast == 0 {
		t.Fatalf("no assignment in a bucket below 100µs (bounds %v, counts %v)", h.Bounds(), h.BucketCounts())
	}
}

// TestInstrumentNilRegistry: the wrapper must pass assignments through
// unchanged with no registry at all.
func TestInstrumentNilRegistry(t *testing.T) {
	rng := stats.NewRNG(6)
	p := binaryPool(4, rng, 0.2)
	a := Instrument(FewestAnswers{}, nil, "bare")
	seen := map[core.TaskID]bool{}
	for i := 0; i < 4; i++ {
		id, ok := a.Assign(p, "solo")
		if !ok {
			t.Fatalf("assign %d: no task from fresh pool", i)
		}
		seen[id] = true
		if err := p.Record(core.Answer{Task: id, Worker: "solo", Option: 0}); err != nil {
			t.Fatal(err)
		}
	}
	if len(seen) != 4 {
		t.Fatalf("instrumented-nil assigner reached %d/4 tasks", len(seen))
	}
	if _, ok := a.Assign(p, "solo"); ok {
		t.Fatal("drained pool still assigned a task")
	}
}
