package core

import (
	"fmt"
	"sort"
	"testing"
	"time"
)

// expireLeasesScan is the pre-heap implementation of ExpireLeases, kept as
// the benchmark baseline: walk every outstanding lease and collect the
// expired ones. Same semantics, O(all leases) per call.
func expireLeasesScan(p *Pool, now time.Time) []Lease {
	var out []Lease
	for id, m := range p.leases {
		for w, d := range m {
			if !d.After(now) {
				out = append(out, Lease{Task: id, Worker: w, Deadline: d})
			}
		}
	}
	for _, l := range out {
		p.releaseLease(l.Task, l.Worker)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Task != out[j].Task {
			return out[i].Task < out[j].Task
		}
		return out[i].Worker < out[j].Worker
	})
	return out
}

// leasedPool builds a pool with nTasks tasks and leasesPerTask leases per
// task, all expiring at or after base.Add(ttl).
func leasedPool(b *testing.B, nTasks, leasesPerTask int, base time.Time, ttl time.Duration) *Pool {
	b.Helper()
	p := NewPool()
	for i := 0; i < nTasks; i++ {
		p.MustAdd(&Task{
			ID: TaskID(i + 1), Kind: SingleChoice,
			Question: "q", Options: []string{"a", "b"},
		})
	}
	for i := 0; i < nTasks; i++ {
		for w := 0; w < leasesPerTask; w++ {
			// Spread deadlines so the heap is not degenerate.
			d := base.Add(ttl + time.Duration(i*leasesPerTask+w)*time.Millisecond)
			if err := p.Lease(TaskID(i+1), fmt.Sprintf("w%d", w), d); err != nil {
				b.Fatal(err)
			}
		}
	}
	return p
}

// The serving layer sweeps before every assignment, so the common case by
// far is a sweep that finds nothing to expire. The heap answers that with
// one deadline peek; the scan baseline walks every lease.
func BenchmarkExpireLeases(b *testing.B) {
	base := time.Unix(1_000_000, 0)
	for _, n := range []int{1_000, 10_000, 100_000} {
		p := leasedPool(b, n/10, 10, base, time.Hour)
		b.Run(fmt.Sprintf("heap/none-expired/leases=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if got := p.ExpireLeases(base); len(got) != 0 {
					b.Fatalf("expired %d leases, want 0", len(got))
				}
			}
		})
		b.Run(fmt.Sprintf("scan/none-expired/leases=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if got := expireLeasesScan(p, base); len(got) != 0 {
					b.Fatalf("expired %d leases, want 0", len(got))
				}
			}
		})
	}

	// Full sweeps: every lease expired. The pool must be rebuilt per
	// iteration (expiry consumes the leases), so the rebuild is excluded
	// via timer control.
	const n = 10_000
	b.Run(fmt.Sprintf("heap/all-expired/leases=%d", n), func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			p := leasedPool(b, n/10, 10, base, time.Hour)
			b.StartTimer()
			if got := p.ExpireLeases(base.Add(24 * time.Hour)); len(got) != n {
				b.Fatalf("expired %d leases, want %d", len(got), n)
			}
		}
	})
	b.Run(fmt.Sprintf("scan/all-expired/leases=%d", n), func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			p := leasedPool(b, n/10, 10, base, time.Hour)
			b.StartTimer()
			if got := expireLeasesScan(p, base.Add(24*time.Hour)); len(got) != n {
				b.Fatalf("expired %d leases, want %d", len(got), n)
			}
		}
	})
}

// The two implementations must agree exactly — same expired set, same
// order — under partial expiry with re-leases and consumed leases mixed
// in. This is the safety net for the heap rewrite.
func TestExpireLeasesMatchesScanReference(t *testing.T) {
	base := time.Unix(5_000, 0)
	build := func() *Pool {
		p := NewPool()
		for i := 1; i <= 6; i++ {
			p.MustAdd(&Task{ID: TaskID(i), Kind: SingleChoice, Question: "q", Options: []string{"a", "b"}})
		}
		for i := 1; i <= 6; i++ {
			for w := 0; w < 4; w++ {
				d := base.Add(time.Duration((i*7+w*13)%20) * time.Second)
				if err := p.Lease(TaskID(i), fmt.Sprintf("w%d", w), d); err != nil {
					t.Fatal(err)
				}
			}
		}
		// Perturb: re-lease some (new deadline; the same deadline again, which
		// doubles the heap entry), consume others, close one.
		_ = p.Lease(2, "w1", base.Add(time.Hour))
		_ = p.Lease(4, "w0", base.Add(8*time.Second))
		_ = p.Record(Answer{Task: 3, Worker: "w2", Option: 0})
		p.Close(5)
		return p
	}
	for _, cut := range []time.Duration{0, 5 * time.Second, 10 * time.Second, time.Hour} {
		heap := build().ExpireLeases(base.Add(cut))
		scan := expireLeasesScan(build(), base.Add(cut))
		if len(heap) != len(scan) {
			t.Fatalf("cut %v: heap expired %d, scan %d", cut, len(heap), len(scan))
		}
		for i := range scan {
			if heap[i].Task != scan[i].Task || heap[i].Worker != scan[i].Worker || !heap[i].Deadline.Equal(scan[i].Deadline) {
				t.Fatalf("cut %v entry %d: heap %+v, scan %+v", cut, i, heap[i], scan[i])
			}
		}
	}
}
