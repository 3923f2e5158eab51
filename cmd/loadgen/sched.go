package main

import (
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// poissonSchedule returns n due offsets with exponential gaps at the
// given rate: independent arrivals, the open-loop model.
func poissonSchedule(r *rng, n int, perSecond float64) []time.Duration {
	due := make([]time.Duration, n)
	t := 0.0
	for i := range due {
		t += r.exp(1 / perSecond)
		due[i] = time.Duration(t * float64(time.Second))
	}
	return due
}

// fixedSchedule returns n due offsets spaced evenly, the first at one gap.
func fixedSchedule(n int, every time.Duration) []time.Duration {
	due := make([]time.Duration, n)
	for i := range due {
		due[i] = time.Duration(i+1) * every
	}
	return due
}

// pacing records how well the generator kept its own schedule. Lateness
// is the delay the generator itself added: how long after the due time an
// operation started on a connection that was idle and waiting for it.
// Backlog is how many due operations were still waiting for a connection
// when one started; that delay is the system's and stays in the latency.
type pacing struct {
	mu       sync.Mutex
	lateMS   []float64
	backlogs []int // per started operation, in start order
}

func (p *pacing) add(lateMS float64, backlog int) {
	p.mu.Lock()
	if lateMS >= 0 {
		p.lateMS = append(p.lateMS, lateMS)
	}
	p.backlogs = append(p.backlogs, backlog)
	p.mu.Unlock()
}

// latenessP99 is the 99th percentile of generator lateness in ms.
func (p *pacing) latenessP99() float64 { return pct(p.lateMS, 99) }

// backlog returns the deepest backlog seen over the third and over the
// fourth quarter of the operations: non-empty and deeper at the end means
// the queue was still growing when the schedule ran out.
func (p *pacing) backlog() (before, end int) {
	n := len(p.backlogs)
	for i, b := range p.backlogs {
		switch {
		case i >= n*3/4:
			end = max(end, b)
		case i >= n/2:
			before = max(before, b)
		}
	}
	return before, end
}

// runOpen executes op(conn, i) for every due offset on conns connections:
// a free connection takes the next operation in due order and waits for
// its due time, never for the previous reply. It returns each operation's
// time from due to done, in ms; an op that returns false has none and is
// left out.
func runOpen(conns int, due []time.Duration, pc *pacing, op func(conn, i int) bool) []float64 {
	lat := make([]float64, len(due))
	done := make([]bool, len(due))
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(due) {
					return
				}
				dueAt := start.Add(due[i])
				late := -1.0 // a connection that was busy past the due time adds no lateness of its own
				if time.Until(dueAt) > 0 {
					sleepUntil(dueAt)
					late = ms(time.Since(dueAt))
				}
				elapsed := time.Since(start)
				waiting := sort.Search(len(due), func(j int) bool { return due[j] > elapsed }) - i - 1
				pc.add(late, max(waiting, 0))
				if op(c, i) {
					lat[i], done[i] = ms(time.Since(dueAt)), true
				}
			}
		}(c)
	}
	wg.Wait()
	out := lat[:0]
	for i, ok := range done {
		if ok {
			out = append(out, lat[i])
		}
	}
	return out
}

// sleepUntil blocks the calling thread in nanosleep until t. time.Sleep
// will not do: an idle Go scheduler parks in epoll with a whole-millisecond
// timeout, which is the size of the latencies being measured.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // cut short by a signal: the loop reads the clock again
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
