package server

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/truth"
)

// ResultsVersionHeader stamps every /api/results response with the pool
// version the served result was computed at, so clients can tell exactly
// how fresh their labels are: compare against a version observed after
// your last submission, or just watch it move.
const ResultsVersionHeader = "X-Results-Version"

// groupSnap caches the option-count grouping of the choice tasks: which
// tasks belong to each inference group, with their *Task pointers hoisted
// so the DTO-rendering loop never goes back to the pool (tasks are
// immutable once added, so the pointers stay valid outside the locks).
//
// The grouping only changes when the task set changes. vers remembers the
// per-shard versions the grouping was last validated at; as long as every
// shard's answer log covers the window since then (only answer appends
// and closes happened), the grouping is still exact and the full
// task-table scan is skipped.
type groupSnap struct {
	vers  []uint64
	ks    []int // sorted option counts
	ids   map[int][]core.TaskID
	tasks map[int][]*core.Task // index-aligned with ids
	kOf   map[core.TaskID]int  // option count per choice task
}

// resultGroup carries one (option count) inference unit from the snapshot
// phase to the compute phase.
type resultGroup struct {
	k     int
	ids   []core.TaskID
	tasks []*core.Task

	res *truth.Result // set under the locks when the memo had it; else filled by compute

	// call is the memo computation this group leads (lead) or waits on.
	call *memoCall
	lead bool

	// A leader's compute-phase inputs: the answers copied out under the
	// locks — the group's whole answer set when base is nil (full build),
	// else only those appended since base was built.
	base  *truth.Dataset
	delta []core.Answer
	warm  *truth.WarmState
}

// newInferrer builds the inference kernel for a validated method name,
// seeded with warm (nil = cold start) and observed by emObs (nil = the
// metrics observer, or nothing). Returns nil for unknown methods.
func (s *Server) newInferrer(method string, warm *truth.WarmState, emObs obs.EMObserver) truth.Inferrer {
	if emObs == nil {
		emObs = s.emObserver()
	}
	switch method {
	case "mv":
		return truth.MajorityVote{}
	case "onecoin":
		return truth.OneCoinEM{Obs: emObs, Warm: warm}
	case "ds":
		return truth.DawidSkene{Obs: emObs, Warm: warm}
	case "glad":
		return truth.GLAD{Obs: emObs, Warm: warm}
	}
	return nil
}

// emMethod reports whether the method is iterative (warm-startable).
func emMethod(method string) bool {
	return method == "onecoin" || method == "ds" || method == "glad"
}

func (s *Server) handleResults(w http.ResponseWriter, r *http.Request) {
	method := strings.ToLower(r.URL.Query().Get("method"))
	if method == "" {
		method = "mv"
	}
	if s.newInferrer(method, nil, nil) == nil {
		httpError(w, http.StatusBadRequest, "unknown method "+method)
		return
	}
	groups, version, err := s.computeResults(r.Context(), method)
	if err != nil {
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	writeResults(w, obs.CurrentSpan(r.Context()), groups, version)
}

// writeResults renders one ResultDTO per task straight from the results'
// dense arrays and the hoisted task pointers — no pool lookups, no locks —
// and sends the body whole, stamped with the version header. A result
// that cannot be rendered (a non-finite confidence) is a 500, decided
// before any header is written. root, when recording, gets the encoding
// time and body size as attributes.
func writeResults(w http.ResponseWriter, root *obs.Span, groups []*resultGroup, version uint64) {
	var start time.Time
	if root.Recording() {
		start = time.Now()
	}
	nTasks := 0
	for _, g := range groups {
		nTasks += len(g.ids)
	}
	enc := resultsEncoder{buf: append(make([]byte, 0, 80*nTasks+3), '[')}
	for _, g := range groups {
		// A group's ids are the very list its result was computed over.
		for i, id := range g.ids {
			lbl, conf := g.res.LabelAt(i), g.res.ConfidenceAt(i)
			opt := ""
			if opts := g.tasks[i].Options; lbl >= 0 && lbl < len(opts) {
				opt = opts[lbl]
			}
			if err := enc.add(ResultDTO{Task: id, Label: lbl, Option: opt, Confidence: conf}); err != nil {
				httpError(w, http.StatusInternalServerError, err.Error())
				return
			}
		}
	}
	body := enc.finish()
	if root.Recording() {
		root.SetAttr(obs.Int("results.encode_us", time.Since(start).Microseconds()),
			obs.Int("results.bytes", int64(len(body))))
	}
	w.Header().Set(ResultsVersionHeader, strconv.FormatUint(version, 10))
	sendJSON(w, body)
}

// resultsEncoder appends ResultDTOs to buf as a JSON array, byte for byte
// what json.NewEncoder(w).Encode([]ResultDTO) writes, without reflecting
// over the elements. buf starts as "[".
type resultsEncoder struct {
	buf []byte
	// memo keeps the JSON form of the last few distinct option strings:
	// the tasks of a group mostly share theirs, so each is escaped once.
	memo [4]struct {
		s string
		q []byte
	}
	next int
}

func (e *resultsEncoder) add(d ResultDTO) error {
	if math.IsNaN(d.Confidence) || math.IsInf(d.Confidence, 0) {
		return fmt.Errorf("results: task %d has a non-finite confidence %v", d.Task, d.Confidence)
	}
	b := e.buf
	if len(b) > 1 {
		b = append(b, ',')
	}
	b = append(b, `{"task":`...)
	b = strconv.AppendInt(b, int64(d.Task), 10)
	b = append(b, `,"label":`...)
	b = strconv.AppendInt(b, int64(d.Label), 10)
	b = append(b, `,"option":`...)
	b = append(b, e.quote(d.Option)...)
	b = append(b, `,"confidence":`...)
	// encoding/json's float rule: shortest round-trip digits, exponent
	// form only below 1e-6 or from 1e21, and its two-digit exponent
	// trimmed (e-07 → e-7).
	format := byte('f')
	if abs := math.Abs(d.Confidence); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, d.Confidence, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	e.buf = append(b, '}')
	return nil
}

// quote returns s as encoding/json renders a string (HTML-safe escaping
// included), from the memo when s was among the last few asked for.
func (e *resultsEncoder) quote(s string) []byte {
	for i := range e.memo {
		if m := &e.memo[i]; m.q != nil && m.s == s {
			return m.q
		}
	}
	q, _ := json.Marshal(s) // a string always marshals
	m := &e.memo[e.next%len(e.memo)]
	m.s, m.q = s, q
	e.next++
	return q
}

// finish closes the array the way Encoder.Encode ends a value.
func (e *resultsEncoder) finish() []byte { return append(e.buf, ']', '\n') }

// computeResults produces up-to-date results for every option-count group
// at a consistent pool version. The snapshot phase runs under every
// shard's read lock, checks the memo once per group and copies as little
// as it can get away with: nothing for a group whose entry is at this
// version or whose computation another poller has started, only the
// appended answers for delta-covered groups, the full answer set
// otherwise. Dataset building and inference run outside the locks, so a
// thundering herd of pollers triggers at most one EM run per (method, k,
// version). When ctx's span is recording, it gets the phase times and the
// number of answers copied as attributes (no clock is read otherwise).
func (s *Server) computeResults(ctx context.Context, method string) ([]*resultGroup, uint64, error) {
	var (
		groups   []*resultGroup
		version  uint64
		versSnap []uint64
	)
	root := obs.CurrentSpan(ctx)
	traced := root.Recording()
	var start time.Time
	if traced {
		start = time.Now()
	}
	s.cpool.ViewDelta(func(v *core.DeltaView) {
		version = v.Version()
		versSnap = append([]uint64(nil), v.Versions...)
		gs := s.groupsFor(v)
		view := shardView(v.Pools)
		for _, k := range gs.ks {
			g := &resultGroup{k: k, ids: gs.ids[k], tasks: gs.tasks[k]}
			groups = append(groups, g)
			e, c, lead := s.memo.begin(memoKey{method: method, k: k}, version)
			g.call, g.lead = c, lead
			if !lead {
				g.res = e.res // nil when joining c: nothing to copy either way
				continue
			}
			if e.res != nil {
				g.warm = e.res.Warm // nil for non-iterative methods
			}
			if e.ds != nil && len(e.shards) == len(v.Versions) {
				if delta, covered := collectDelta(v, e.shards, gs, k); covered {
					if len(delta) == 0 {
						// The version moved but this group's answers did
						// not: the entry advances to this version, with no
						// dataset build and no inference.
						e.version, e.shards = version, versSnap
						s.memo.finish(c, e, nil)
						g.res = e.res
						s.resM.groupSkips.Inc()
					} else {
						g.base, g.delta = e.ds, delta
					}
					continue
				}
			}
			for _, id := range g.ids {
				g.delta = append(g.delta, view.Answers(id)...)
			}
		}
	})
	var copied, datasetUS int64
	if traced {
		root.SetAttr(obs.Int("results.snapshot_us", time.Since(start).Microseconds()))
	}

	// Every led call is finished, even after an error, so its joiners
	// wake; the first error is returned.
	var err error
	for _, g := range groups {
		var gerr error
		switch {
		case g.res != nil:
			continue
		case !g.lead:
			<-g.call.done
			g.res, gerr = g.call.res, g.call.err
			if gerr == nil {
				s.resM.flightShared.Inc()
			}
		default:
			copied += int64(len(g.delta))
			e := memoEntry{version: version, shards: versSnap}
			e.ds, e.res, gerr = s.inferGroup(ctx, method, g, traced, &datasetUS)
			s.memo.finish(g.call, e, gerr)
			g.res = e.res
		}
		if err == nil {
			err = gerr
		}
	}
	if err != nil {
		return nil, 0, err
	}
	if traced {
		root.SetAttr(obs.Int("results.dataset_us", datasetUS), obs.Int("results.delta_answers", copied))
	}
	return groups, version, nil
}

// inferGroup builds a led group's dataset (its delta appended to base,
// or a full build) and runs the method over it, warm-started from g.warm.
// When traced, the build time is added to datasetUS.
func (s *Server) inferGroup(ctx context.Context, method string, g *resultGroup, traced bool, datasetUS *int64) (*truth.Dataset, *truth.Result, error) {
	var start time.Time
	if traced {
		start = time.Now()
	}
	var ds *truth.Dataset
	var err error
	if g.base != nil {
		ds, err = g.base.AppendDelta(g.delta)
	} else {
		ds, err = truth.FromAnswers(g.k, g.ids, g.delta)
	}
	if err != nil {
		return nil, nil, err
	}
	if g.base != nil {
		s.resM.deltaBuilds.Inc()
	} else {
		s.resM.fullBuilds.Inc()
	}
	if traced {
		*datasetUS += time.Since(start).Microseconds()
	}
	if emMethod(method) {
		if g.warm != nil {
			s.resM.warmHits.Inc()
		} else {
			s.resM.warmMisses.Inc()
		}
	}
	_, esp := obs.ChildSpan(ctx, "em.run")
	if esp.Recording() {
		esp.SetAttr(obs.Str("em.method", method), obs.Int("k", int64(g.k)),
			obs.Int("tasks", int64(len(g.ids))), obs.Bool("warm", g.warm != nil))
	}
	res, err := s.newInferrer(method, g.warm, obs.EMObserverWithSpan(s.emObserver(), esp)).Infer(ds)
	esp.SetError(err)
	esp.End()
	if err != nil {
		return nil, nil, err
	}
	return ds, res, nil
}

// collectDelta gathers the answers appended to group k since the cached
// per-shard versions. covered is false when any shard's log no longer
// reaches back to the snapshot (the caller falls back to a full build).
func collectDelta(v *core.DeltaView, since []uint64, gs *groupSnap, k int) (delta []core.Answer, covered bool) {
	for i := range v.Versions {
		var ok bool
		delta, ok = v.AppendedSince(i, since[i], delta)
		if !ok {
			return nil, false
		}
	}
	// Keep only this group's usable answers (same filter FromPool
	// applies); answers for other groups or non-choice tasks drop out.
	n := 0
	for _, a := range delta {
		if gk, ok := gs.kOf[a.Task]; ok && gk == k && a.Option >= 0 && a.Option < k {
			delta[n] = a
			n++
		}
	}
	return delta[:n], true
}

// groupsFor returns the option-count grouping valid for the snapshot in
// v, revalidating the cached grouping via the answer logs (appends and
// closes cannot change group membership) and rebuilding it with a full
// task-table scan only when a structural change forces it. Callers hold
// the shard read locks (via ViewDelta); groupMu orders concurrent
// revalidations.
func (s *Server) groupsFor(v *core.DeltaView) *groupSnap {
	s.groupMu.Lock()
	defer s.groupMu.Unlock()
	if gs := s.groups; gs != nil && len(gs.vers) == len(v.Versions) {
		ok := true
		for i := range v.Versions {
			if v.Versions[i] != gs.vers[i] && !v.CanDelta(i, gs.vers[i]) {
				ok = false
				break
			}
		}
		if ok {
			// Advance the validation point so a later log trim between two
			// unchanged-membership polls does not force a spurious rebuild.
			copy(gs.vers, v.Versions)
			return gs
		}
	}
	view := shardView(v.Pools)
	gs := &groupSnap{
		vers:  append([]uint64(nil), v.Versions...),
		ids:   map[int][]core.TaskID{},
		tasks: map[int][]*core.Task{},
		kOf:   map[core.TaskID]int{},
	}
	for _, id := range core.TaskIDsOf(v.Pools) {
		t := view.Task(id)
		switch t.Kind {
		case core.SingleChoice, core.MultiChoice, core.PairwiseComparison:
			k := len(t.Options)
			gs.ids[k] = append(gs.ids[k], id)
			gs.tasks[k] = append(gs.tasks[k], t)
			gs.kOf[id] = k
		}
	}
	gs.ks = make([]int, 0, len(gs.ids))
	for k := range gs.ids {
		gs.ks = append(gs.ks, k)
	}
	sort.Ints(gs.ks)
	s.groups = gs
	return gs
}
