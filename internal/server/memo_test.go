package server

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/truth"
)

// latest returns the completed entry for key, if there is one.
func (m *resultsMemo) latest(key memoKey) (memoEntry, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if s := m.slots[key]; s != nil && s.entry.res != nil {
		return s.entry, true
	}
	return memoEntry{}, false
}

// len returns the number of keys holding a completed entry.
func (m *resultsMemo) len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, s := range m.slots {
		if s.entry.res != nil {
			n++
		}
	}
	return n
}

// memoDo is one poll's use of the memo, as computeResults makes it: take
// the entry at v, or wait for the computation of v, or lead it with build.
func memoDo(m *resultsMemo, key memoKey, v uint64, build func() (*truth.Result, error)) (*truth.Result, error) {
	e, c, lead := m.begin(key, v)
	switch {
	case c == nil:
		return e.res, nil
	case !lead:
		<-c.done
		return c.res, c.err
	}
	res, err := build()
	m.finish(c, memoEntry{version: v, res: res}, err)
	return res, err
}

func TestMemoVersionKeying(t *testing.T) {
	var m resultsMemo
	key := memoKey{method: "mv", k: 2}
	r7 := &truth.Result{Method: "mv"}
	if _, c, lead := m.begin(key, 7); !lead {
		t.Fatal("empty memo did not make the first poller lead")
	} else {
		m.finish(c, memoEntry{version: 7, res: r7}, nil)
	}
	if e, c, lead := m.begin(key, 7); c != nil || lead || e.res != r7 {
		t.Fatal("exact-version lookup missed")
	}
	// Another version or another key is not served the entry: the poller
	// leads, seeded with the latest entry of its own key.
	e, c8, lead := m.begin(key, 8)
	if !lead || e.res != r7 || e.version != 7 {
		t.Fatalf("version 8: lead %v, base %+v; want lead from the version-7 entry", lead, e)
	}
	if e, c, lead := m.begin(memoKey{method: "ds", k: 2}, 7); !lead || e.res != nil {
		t.Fatal("wrong key served")
	} else {
		m.finish(c, memoEntry{}, errors.New("abandoned"))
	}
	// A newer entry replaces the entry for the same key.
	r8 := &truth.Result{Method: "mv"}
	m.finish(c8, memoEntry{version: 8, res: r8}, nil)
	if _, c, lead := m.begin(key, 7); !lead {
		t.Fatal("replaced entry still served at its old version")
	} else {
		m.finish(c, memoEntry{version: 7, res: r7}, nil)
	}
	if e, _, _ := m.begin(key, 8); e.res != r8 {
		t.Fatal("replacement entry missed")
	}
	if m.len() != 1 {
		t.Fatalf("len = %d, want 1 (a failed computation stores nothing)", m.len())
	}
}

func TestMemoMonotonicFinish(t *testing.T) {
	var m resultsMemo
	key := memoKey{method: "onecoin", k: 3}
	if _, ok := m.latest(key); ok {
		t.Fatal("empty memo served a latest entry")
	}
	_, c7, _ := m.begin(key, 7)
	_, join7, _ := m.begin(key, 7)
	_, c8, lead := m.begin(key, 8)
	if join7 != c7 || !lead || c8 == c7 {
		t.Fatal("want a join at version 7 and a second leader at version 8")
	}
	r8 := &truth.Result{Method: "OneCoinEM"}
	m.finish(c8, memoEntry{version: 8, shards: []uint64{5, 3}, res: r8}, nil)
	// A slow computation finishing late does not roll the memo back, but
	// its joiners still get the result of the version they asked for.
	r7 := &truth.Result{Method: "OneCoinEM"}
	m.finish(c7, memoEntry{version: 7, res: r7}, nil)
	<-join7.done
	if join7.res != r7 {
		t.Fatal("joiner of version 7 did not get version 7's result")
	}
	if e, ok := m.latest(key); !ok || e.version != 8 || e.res != r8 {
		t.Fatalf("latest = (%+v, %v), want the version-8 entry", e, ok)
	}
	// A same-version finish replaces (an entry refreshed in place).
	_, c9, _ := m.begin(key, 9)
	r8b := &truth.Result{Method: "OneCoinEM"}
	m.finish(c9, memoEntry{version: 8, res: r8b}, nil)
	if e, _ := m.latest(key); e.res != r8b {
		t.Fatal("same-version finish did not replace")
	}
	// A failed computation wakes its joiners with the error, stores
	// nothing and clears the slot: the next poller leads again.
	_, c10, _ := m.begin(key, 10)
	_, join10, _ := m.begin(key, 10)
	boom := errors.New("boom")
	m.finish(c10, memoEntry{}, boom)
	<-join10.done
	if join10.err != boom || join10.res != nil {
		t.Fatalf("joiner woke with (%v, %v), want the leader's error", join10.res, join10.err)
	}
	if e, _ := m.latest(key); e.res != r8b {
		t.Fatal("failed computation replaced the entry")
	}
	if _, c, lead := m.begin(key, 10); !lead || c == c10 {
		t.Fatal("failed computation still occupies the slot")
	}
}

// TestMemoLateMissTakesEntry covers the window between "computed" and
// "stored" with a build that blocks: a poller whose snapshot is at v while
// the leader computes v, and whose memo check comes only after the leader
// has finished, takes the stored entry. A poller that checks during the
// computation joins it. Either way there is one computation.
func TestMemoLateMissTakesEntry(t *testing.T) {
	var m resultsMemo
	key := memoKey{method: "ds", k: 2}
	var builds atomic.Int32
	release := make(chan struct{})
	building := make(chan struct{})
	want := &truth.Result{Method: "DawidSkene"}
	build := func() (*truth.Result, error) {
		builds.Add(1)
		close(building)
		<-release
		return want, nil
	}
	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		if res, err := memoDo(&m, key, 5, build); err != nil || res != want {
			t.Errorf("leader got (%v, %v)", res, err)
		}
	}()
	<-building
	_, joined, lead := m.begin(key, 5)
	if lead || joined == nil {
		t.Fatal("a poller checking during the computation did not join it")
	}
	close(release)
	<-leaderDone
	<-joined.done
	if joined.res != want {
		t.Fatal("joiner did not share the leader's result")
	}
	res, err := memoDo(&m, key, 5, func() (*truth.Result, error) {
		builds.Add(1)
		return &truth.Result{}, nil
	})
	if err != nil || res != want {
		t.Fatalf("late poller got (%v, %v), want the stored entry", res, err)
	}
	if n := builds.Load(); n != 1 {
		t.Fatalf("%d computations for one version, want 1", n)
	}
}

func TestMemoConcurrentAccess(t *testing.T) {
	var m resultsMemo
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			key := memoKey{method: "mv", k: g % 4}
			for i := 0; i < 200; i++ {
				res, err := memoDo(&m, key, uint64(i), func() (*truth.Result, error) {
					return &truth.Result{Method: "mv"}, nil
				})
				if err != nil || res == nil {
					t.Errorf("poll returned (%v, %v)", res, err)
					return
				}
				if e, ok := m.latest(key); !ok || e.res == nil {
					t.Error("memo returned no latest result")
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if m.len() != 4 {
		t.Fatalf("len = %d, want 4", m.len())
	}
}

// Every poll builds a memoKey and checks the memo for every group; a hit
// must allocate nothing.
func TestMemoHitAllocsNothing(t *testing.T) {
	var m resultsMemo
	_, c, _ := m.begin(memoKey{method: "ds", k: 4}, 3)
	m.finish(c, memoEntry{version: 3, res: &truth.Result{}}, nil)
	allocs := testing.AllocsPerRun(100, func() {
		if _, c, _ := m.begin(memoKey{method: "ds", k: 4}, 3); c != nil {
			t.Fatal("lookup missed")
		}
	})
	if allocs != 0 {
		t.Fatalf("a memo hit allocates %.1f per op, want 0", allocs)
	}
}
