package server

import (
	"sync"

	"repro/internal/truth"
)

// memoKey names one memoized inference: the method and the option-count
// group it runs over. It is a comparable struct, so the lookup a poll
// makes allocates nothing.
type memoKey struct {
	method string
	k      int
}

// memoEntry is a completed inference: the result, the dataset it was
// computed over, and the pool's aggregate and per-shard versions at the
// snapshot. A later poll extends ds with only the answers appended since
// shards (Dataset.AppendDelta) and seeds EM from res.Warm.
type memoEntry struct {
	version uint64
	shards  []uint64
	res     *truth.Result // nil: no entry yet
	ds      *truth.Dataset
}

// memoCall is one computation in progress. Joiners block on done, then
// read res and err.
type memoCall struct {
	slot    *memoSlot
	version uint64
	done    chan struct{}
	res     *truth.Result
	err     error
}

// memoSlot is the memo's state for one key.
type memoSlot struct {
	entry   memoEntry // the latest completed computation
	running *memoCall // the newest computation in progress, nil when idle
}

// resultsMemo is /api/results' memo over the answer set: per (method,
// option count), the latest completed inference and the newest
// computation in progress, under one mutex. A poller checks it once,
// inside ViewDelta, so it takes the entry, joins the computation or
// starts one, and cannot fall between "computed" and "stored". Lock
// order is pool read locks → mu; mu is never held across a wait or an
// inference run. Stored results and datasets are shared and must be
// treated as immutable. The zero value is ready to use.
type resultsMemo struct {
	mu    sync.Mutex
	slots map[memoKey]*memoSlot
}

// begin is a poller's one check at pool version v. If the latest entry is
// at v it returns that entry (c nil). If a computation in progress targets
// v it returns that call to wait on. Otherwise it registers a new call for
// v and returns it with lead set and the latest entry (res nil when there
// is none) as the base to extend; the leader must end it with finish.
func (m *resultsMemo) begin(key memoKey, v uint64) (e memoEntry, c *memoCall, lead bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := m.slots[key]
	if s == nil {
		if m.slots == nil {
			m.slots = make(map[memoKey]*memoSlot)
		}
		s = &memoSlot{}
		m.slots[key] = s
	}
	if s.entry.res != nil && s.entry.version == v {
		return s.entry, nil, false
	}
	if s.running != nil && s.running.version == v {
		return memoEntry{}, s.running, false
	}
	s.running = &memoCall{slot: s, version: v, done: make(chan struct{})}
	return s.entry, s.running, true
}

// finish ends a leader's call. On success e is stored unless the slot
// already holds a newer entry: a slow computation must not roll results
// back behind one that finished first. Either way the call's joiners wake
// with its outcome and the slot forgets the call if it is still the
// newest.
func (m *resultsMemo) finish(c *memoCall, e memoEntry, err error) {
	m.mu.Lock()
	s := c.slot
	if err == nil && s.entry.version <= e.version {
		s.entry = e
	}
	if s.running == c {
		s.running = nil
	}
	c.res, c.err = e.res, err
	m.mu.Unlock()
	close(c.done)
}
