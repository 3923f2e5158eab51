package main

import (
	"container/heap"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// cqlQuery is the requester-facing path: one CrowdQL session runs, per
// iteration, a machine statement (join + group by, synchronous) and a
// crowd query whose CROWDFILTER publishes one question per row into the
// pool. The crowd is a set of simulated workers, timer-driven state
// machines multiplexed with the requester over the two connections:
// fetch, think, answer; re-poll shortly after an idle 204. Crowd wait
// dominates, as in a real deployment.
type cqlQuery struct {
	srv   *server
	kinds []string // items.kind values, one per row
	facts []int    // facts.item per row (the machine statement's expected counts)

	// What the workers saw and said, for the output check: question text
	// to the options answered (acked answers only).
	mu       sync.Mutex
	answered map[string][]int
	acked    int // answers the child recorded (200)
	rejected int // answers refused because the question had closed (409)
	fetches  int // worker polls
	idle     int // of which 204
}

const cqlSession = "bench"

func (w *cqlQuery) flags(x *runCtx) []string {
	p := x.p.CQLQuery
	x.res.Flush = p.Fsync
	return []string{"-tasks", "0", "-shards", strconv.Itoa(p.Shards), "-fsync", p.Fsync, "-cql-dir", "mem", "-lease", p.Lease}
}

// pageDTO is a query handle page.
type pageDTO struct {
	Query   string     `json:"query_id"`
	Status  string     `json:"status"`
	Rows    [][]string `json:"rows"`
	Next    string     `json:"next_page_token"`
	Error   string     `json:"error"`
	TraceID string     `json:"trace_id"`
}

// execute posts one statement or script and decodes the first page.
func (w *cqlQuery) execute(src, tid string) (pageDTO, reply, bool) {
	body, _ := json.Marshal(map[string]string{"src": src}) // a map of strings cannot fail to encode
	var page pageDTO
	r, ok := w.srv.cli.expect(http.StatusOK, http.MethodPost, "/api/cql/session/"+cqlSession+"/execute", body, tid)
	if !ok {
		return page, r, false
	}
	if err := json.Unmarshal(r.body, &page); err != nil || page.Status == "error" {
		w.srv.cli.tally.fail("execute %q: %v %s", clip([]byte(src)), err, page.Error)
		return page, r, false
	}
	return page, r, true
}

func (w *cqlQuery) setup(x *runCtx) error {
	p := x.p.CQLQuery
	srv, err := x.startServer("cql_query", w.flags(x))
	if err != nil {
		return err
	}
	w.srv = srv
	w.answered = map[string][]int{}
	if _, ok := srv.cli.expect(http.StatusOK, http.MethodPost, "/api/cql/session", []byte(`{"session":"`+cqlSession+`"}`), ""); !ok {
		return fmt.Errorf("creating the session failed: %v", x.tally.first)
	}
	r := newRNG(mix(x.seed, 3))
	var items []string
	for i := 0; i < p.Items; i++ {
		kind := fmt.Sprintf("k%d-%04x", i, r.next()&0xffff)
		w.kinds = append(w.kinds, kind)
		items = append(items, fmt.Sprintf("(%d,'%s')", i+1, kind))
	}
	if _, _, ok := w.execute("CREATE TABLE items (id INT, kind STRING); INSERT INTO items VALUES "+strings.Join(items, ",")+
		"; CREATE TABLE facts (id INT, item INT, v INT)", ""); !ok {
		return fmt.Errorf("loading items failed: %v", x.tally.first)
	}
	for from := 0; from < p.Facts; from += 500 {
		var rows []string
		for i := from; i < min(from+500, p.Facts); i++ {
			item := r.intn(p.Items) + 1
			w.facts = append(w.facts, item)
			rows = append(rows, fmt.Sprintf("(%d,%d,%d)", i+1, item, r.intn(100)))
		}
		if _, _, ok := w.execute("INSERT INTO facts VALUES "+strings.Join(rows, ","), ""); !ok {
			return fmt.Errorf("loading facts failed: %v", x.tally.first)
		}
	}
	// A few iterations before timing: plans, page buffers, the lease heap
	// and the workers' connections are then as warm as in steady state.
	w.crowd(x, 0, p.WarmupIterations)
	return nil
}

// crowd runs iterations [from, end) of the requester's loop with the
// simulated workers answering, all multiplexed over the two connections.
func (w *cqlQuery) crowd(x *runCtx, from, end int) *crowdRun {
	p := x.p.CQLQuery
	run := &crowdRun{w: w, x: x, m: &mux{}, holding: make([]heldTask, p.Workers), iter: from, end: end, done: make(chan struct{})}
	now := time.Now()
	for i := 0; i < p.Workers; i++ {
		run.think = append(run.think, newRNG(mix(x.seed, 4, uint64(from), uint64(i))))
		run.m.push(now, i)
	}
	run.m.push(now, requester)
	var wg sync.WaitGroup
	for c := 0; c < maxConns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				e, late, ok := run.m.pop()
				if !ok {
					return
				}
				run.pc.add(late, 0)
				if e.actor == requester {
					run.requesterStep()
				} else {
					run.workerStep(e.actor)
				}
			}
		}()
	}
	<-run.done
	run.m.close()
	wg.Wait()
	return run
}

func (w *cqlQuery) teardown() { w.srv.stop() }

const machineSQL = "SELECT items.kind, COUNT(*) FROM facts JOIN items ON facts.item = items.id GROUP BY items.kind"

// machineStatement runs the synchronous join + group by and checks it
// against the counts the generator loaded.
func (w *cqlQuery) machineStatement(x *runCtx) (traceID string, ok bool) {
	page, _, ok := w.execute(machineSQL, "")
	if !ok {
		return "", false
	}
	want := map[string]int{}
	for _, item := range w.facts {
		want[w.kinds[item-1]]++
	}
	good := page.Status == "done" && len(page.Rows) == len(want)
	for _, row := range page.Rows {
		if len(row) != 2 || strconv.Itoa(want[row[0]]) != row[1] {
			good = false
		}
	}
	return page.TraceID, x.tally.check(good, "machine statement returned %d rows (status %s), want %d groups with the loaded counts", len(page.Rows), page.Status, len(want))
}

// event is one due action of one actor on the shared schedule.
type event struct {
	at    time.Time
	actor int // worker index, or requester
	seq   int // insertion order, the tie-break
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if !h[i].at.Equal(h[j].at) {
		return h[i].at.Before(h[j].at)
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() any {
	old := *h
	e := old[len(old)-1]
	*h = old[:len(old)-1]
	return e
}

// mux hands due events to whichever connection is free, earliest first.
// Only the connection goroutines push, and each pops right after, so no
// push needs to wake a sleeper: a waiting connection re-reads the heap
// every muxSlice, which also bounds how long a due event can sit behind a
// connection sleeping towards a later one.
type mux struct {
	mu     sync.Mutex
	h      eventHeap
	seq    int
	closed bool
}

const muxSlice = 250 * time.Microsecond

func (m *mux) push(at time.Time, actor int) {
	m.mu.Lock()
	m.seq++
	heap.Push(&m.h, event{at: at, actor: actor, seq: m.seq})
	m.mu.Unlock()
}

func (m *mux) close() {
	m.mu.Lock()
	m.closed = true
	m.mu.Unlock()
}

// pop blocks until the earliest event is due and returns it with how late
// the generator handed it out (-1 when the event was already due, so the
// wait was for a connection, not for the generator); ok is false once the
// mux is closed.
func (m *mux) pop() (e event, lateMS float64, ok bool) {
	waited := false
	for {
		m.mu.Lock()
		if m.closed {
			m.mu.Unlock()
			return event{}, 0, false
		}
		wait := muxSlice
		if len(m.h) > 0 {
			wait = min(wait, time.Until(m.h[0].at))
			if wait <= 0 {
				e = heap.Pop(&m.h).(event)
				m.mu.Unlock()
				lateMS = -1
				if waited {
					lateMS = ms(time.Since(e.at))
				}
				return e, lateMS, true
			}
		}
		m.mu.Unlock()
		sleepUntil(time.Now().Add(wait))
		waited = true
	}
}

const requester = -1

// crowdRun is the state of the measured loop.
type crowdRun struct {
	w  *cqlQuery
	x  *runCtx
	m  *mux
	pc pacing

	// Workers: the task each holds between fetch and answer.
	holding []heldTask
	think   []*rng

	// Requester.
	iter, end  int // the running iteration, and the one to stop before
	phase      int // 0 machine statement, 1 execute, 2 poll handle
	qStart     time.Time
	qid        string
	token      string
	rows       map[string]bool
	queryMS    []float64
	machineMS  []float64
	machineIDs []string // trace IDs of the machine statements (traced runs)
	queryIDs   []string
	done       chan struct{}
}

type heldTask struct {
	id       int
	question string
}

func (w *cqlQuery) measure(x *runCtx) error {
	p := x.p.CQLQuery
	var before promSample
	if x.traced {
		before = w.srv.scrape()
	}
	st0, _ := w.srv.stats()
	wal0 := w.srv.walBytes()
	use := startUsage(w.srv.child.pid())

	run := w.crowd(x, p.WarmupIterations, p.WarmupIterations+p.Iterations)

	sq := x.timing("query_ms", run.queryMS)
	x.metric("op_p50_ms", sq.P50, "ms")
	x.metric("op_tail_ms", sq.Tail, "ms")
	x.metric("loadgen.op_p99_ms", sq.P99, "ms")
	sm := x.timing("machine_stmt_ms", run.machineMS)
	x.metric("side_op_ms", sm.P50, "ms")
	x.pacingChecks(&run.pc, x.p.LatenessLimitMS)

	questions := p.Iterations * p.Items
	useful := questions * p.Redundancy
	st1, ok := w.srv.stats()
	x.metric("wal_bytes_per_answer", float64(w.srv.walBytes()-wal0)/float64(useful), "B")
	use.report(x, questions)
	if ok {
		spent := st1.BudgetSpent - st0.BudgetSpent
		x.metric("cql.units_per_query", spent/float64(p.Iterations), "units")
		x.metric("cql.answers_per_question", float64(st1.TotalAnswers-st0.TotalAnswers)/float64(questions), "count")
		x.tally.check(st1.TotalAnswers == w.acked, "stats total_answers %d, acked %d", st1.TotalAnswers, w.acked)
		x.tally.check(int(st1.BudgetSpent) == w.acked, "stats budget_spent %v, answers recorded %d", st1.BudgetSpent, w.acked)
		x.tally.check(st1.ActiveLeases == 0, "stats active_leases %d after the last query", st1.ActiveLeases)
		x.tally.check(st1.OpenTasks == 0, "stats open_tasks %d after the last query", st1.OpenTasks)
		x.output("questions", st1.Tasks)
	}
	x.metric("cql.rejected_answer_share", float64(w.rejected)/float64(max(w.acked+w.rejected, 1)), "ratio")
	x.metric("assign.miss_share", float64(w.idle)/float64(max(w.fetches, 1)), "ratio")

	if x.traced {
		w.layers(x, run, w.srv.scrape().delta(before), w.acked)
	}
	w.srv.connectionChecks()
	return nil
}

// workerStep performs worker i's next request and schedules the one after.
func (r *crowdRun) workerStep(i int) {
	p, w := r.x.p.CQLQuery, r.w
	name := "crowd-" + strconv.Itoa(i)
	if held := r.holding[i]; held.id != 0 {
		r.holding[i] = heldTask{}
		option := int(fnv64(held.question) % 2)
		body := fmt.Sprintf(`{"task":%d,"worker":%q,"option":%d}`, held.id, name, option)
		rep, ok := w.srv.cli.do(http.MethodPost, "/api/answer", []byte(body), "")
		w.mu.Lock()
		switch {
		case !ok:
		case rep.status == http.StatusOK:
			w.acked++
			w.answered[held.question] = append(w.answered[held.question], option)
		case rep.status == http.StatusConflict:
			// The question closed while this worker was thinking: k faster
			// answers had arrived. Over-assignment waste, not a failure.
			w.rejected++
		default:
			w.srv.cli.tally.fail("POST /api/answer: HTTP %d: %s", rep.status, clip(rep.body))
		}
		w.mu.Unlock()
		r.m.push(time.Now(), i)
		return
	}
	rep, ok := w.srv.cli.do(http.MethodGet, "/api/task?worker="+name, nil, "")
	w.mu.Lock()
	w.fetches++
	if ok && rep.status == http.StatusNoContent {
		w.idle++
	}
	w.mu.Unlock()
	if ok && rep.status == http.StatusOK {
		var t struct {
			ID       int    `json:"id"`
			Question string `json:"question"`
		}
		if err := json.Unmarshal(rep.body, &t); err == nil && t.ID != 0 {
			r.holding[i] = heldTask{t.ID, t.Question}
			think := r.think[i].lognormal(p.ThinkMedianMS, p.ThinkSigma)
			r.m.push(time.Now().Add(time.Duration(think*float64(time.Millisecond))), i)
			return
		}
		w.srv.cli.tally.fail("GET /api/task: %s", clip(rep.body))
	} else if ok && rep.status != http.StatusNoContent {
		w.srv.cli.tally.fail("GET /api/task: HTTP %d: %s", rep.status, clip(rep.body))
	}
	r.m.push(time.Now().Add(time.Duration(p.IdleRepollMS*float64(time.Millisecond))), i)
}

// requesterStep performs the requester's next request.
func (r *crowdRun) requesterStep() {
	w, x := r.w, r.x
	switch r.phase {
	case 0:
		start := time.Now()
		if traceID, ok := w.machineStatement(x); ok {
			r.machineMS = append(r.machineMS, ms(time.Since(start)))
			r.machineIDs = append(r.machineIDs, traceID)
		}
		r.phase = 1
		r.m.push(time.Now(), requester)
	case 1:
		r.qStart = time.Now()
		r.rows = map[string]bool{}
		src := fmt.Sprintf("SELECT * FROM items WHERE CROWDFILTER('q%d-%d', kind)", x.seed, r.iter)
		page, _, ok := w.execute(src, "")
		if !ok {
			r.finishQuery(false)
			return
		}
		r.qid, r.token = page.Query, ""
		if page.TraceID != "" {
			r.queryIDs = append(r.queryIDs, page.TraceID)
		}
		r.takePage(page)
	case 2:
		var page pageDTO
		path := "/api/cql/session/" + cqlSession + "/query/" + r.qid
		if r.token != "" {
			path += "?page_token=" + r.token
		}
		if !w.srv.cli.getJSON(path, &page) {
			r.finishQuery(false)
			return
		}
		r.takePage(page)
	}
}

// takePage consumes one page of the running query: rows are kept, and
// either the next page is scheduled or the query ends.
func (r *crowdRun) takePage(page pageDTO) {
	for _, row := range page.Rows {
		if len(row) == 2 {
			r.rows[row[1]] = true
		}
	}
	switch {
	case page.Status == "running":
		r.phase, r.token = 2, page.Next
		wait := time.Duration(r.x.p.CQLQuery.HandlePollMS * float64(time.Millisecond))
		r.m.push(time.Now().Add(wait), requester)
	case page.Status == "done" && page.Next != "":
		r.phase, r.token = 2, page.Next
		r.m.push(time.Now(), requester)
	default:
		r.finishQuery(page.Status == "done")
	}
}

// finishQuery closes one iteration: time it, check its rows against what
// the workers answered, and start the next or end the run.
func (r *crowdRun) finishQuery(done bool) {
	x, w := r.x, r.w
	elapsed := ms(time.Since(r.qStart))
	if x.tally.check(done, "crowd query %d did not end done", r.iter) {
		r.queryMS = append(r.queryMS, elapsed)
		// Expected rows: the items whose question every worker answered
		// "yes" to. The workers answer by a hash of the question text, so
		// they are unanimous and inference has nothing to decide.
		want := map[string]bool{}
		prefix := fmt.Sprintf("q%d-%d ", x.seed, r.iter)
		w.mu.Lock()
		for q, opts := range w.answered {
			if !strings.HasPrefix(q, prefix) {
				continue
			}
			yes := true
			for _, o := range opts {
				yes = yes && o == 1
			}
			if yes {
				want[q[strings.LastIndexByte(q, ' ')+1:]] = true
			}
			delete(w.answered, q)
		}
		w.mu.Unlock()
		x.tally.check(sameSet(r.rows, want), "crowd query %d returned %d rows, the workers' answers imply %d", r.iter, len(r.rows), len(want))
		kinds := make([]string, 0, len(r.rows))
		for k := range r.rows {
			kinds = append(kinds, k)
		}
		sort.Strings(kinds)
		x.output("rows", r.iter, kinds)
	}
	r.iter++
	if r.iter >= r.end {
		close(r.done)
		return
	}
	r.phase = 0
	r.m.push(time.Now(), requester)
}

func sameSet(a, b map[string]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

// layers reads back every crowd query's trace and splits a query into
// machine time and crowd wait.
func (w *cqlQuery) layers(x *runCtx, run *crowdRun, d promSample, answers int) {
	st := newSpanStats()
	var queryMS, waitShare, machinePerQ []float64
	k := x.p.CQLQuery.Redundancy
	for _, id := range run.queryIDs {
		var t traceDTO
		if !w.srv.cli.getJSON("/api/trace/"+id, &t) {
			st.missed++
			continue
		}
		st.add(t, 0)
		var query, questions float64
		for _, s := range t.Spans {
			switch s.Name {
			case "cql.query":
				query = s.DurationMS
			case "cql.question":
				questions += s.DurationMS
				// Crowd wait proper runs from the first lease to the k-th
				// answer; the rest of the span is publish, wake-up and close.
				first, kth := -1.0, -1.0
				for _, ev := range s.Events {
					switch {
					case ev.Name == "lease" && first < 0:
						first = ev.AtMS
					case ev.Name == "answer" && ev.Attrs["n"] == float64(k):
						kth = ev.AtMS
					}
				}
				if first >= 0 && kth >= first {
					machinePerQ = append(machinePerQ, s.DurationMS-(kth-first))
				}
			}
		}
		if query > 0 {
			queryMS = append(queryMS, query)
			waitShare = append(waitShare, questions/query)
		}
	}
	x.traceLossCheck(d)
	x.metric("cql.query_ms_p50", pct(queryMS, 50), "ms")
	// A machine statement has no crowd wait: its stages' self times are
	// the statement.
	var stageSelf []float64
	for _, id := range run.machineIDs {
		var t traceDTO
		if !w.srv.cli.getJSON("/api/trace/"+id, &t) {
			st.missed++
			continue
		}
		self, sum := selfTimes(t.Spans), 0.0
		for _, s := range t.Spans {
			if strings.HasPrefix(s.Name, "cql.stage.") {
				sum += self[s.SpanID]
			}
		}
		stageSelf = append(stageSelf, sum)
	}
	x.metric("cql.stage_self_ms_p50", pct(stageSelf, 50), "ms")
	x.metric("cql.question_ms_p50", pct(st.dur["cql.question"], 50), "ms")
	x.metric("cql.question_ms_p90", pct(st.dur["cql.question"], 90), "ms")
	x.metric("cql.crowd_wait_share", pct(waitShare, 50), "ratio")
	x.metric("cql.machine_ms_per_question", meanOf(machinePerQ), "ms")
	x.metric("assign.policy_us_mean", 1e6*d.histMean("crowdkit_assign_seconds"), "us")
	walHistograms(x, d)
	walCounters(x, d, answers)
	x.metric("loadgen.traces_missed", float64(st.missed), "count")
}
