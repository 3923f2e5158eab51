package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// workerLoop is the paper's worker-facing path with the "200 means
// journaled" contract on: GET /api/task, POST /api/answer, every ack
// behind an fsync. Phase A is a closed loop (each connection sends its
// next round trip when the previous one is acked) and gives throughput;
// phase B is an open loop on a seeded Poisson schedule at a pinned rate
// well under capacity and gives latency from the due time.
type workerLoop struct {
	srv   *server
	acked int   // answers the child acknowledged so far, warm-up included
	wal0  int64 // WAL bytes when set-up ended
	conns [maxConns]connLog
}

// connLog is what one connection did; only the goroutine driving the
// connection touches it.
type connLog struct {
	turns   int        // round trips started, which also rotates the worker ID
	misses  int        // idle 204 polls
	service []float64  // per acked round trip, ms from fetch to ack
	tasks   []tracedOp // traced runs: the GET /api/task exchanges
	answers []tracedOp // traced runs: the POST /api/answer exchanges
}

func (w *workerLoop) flags(x *runCtx) []string {
	p := x.p.WorkerLoop
	x.res.Flush = p.Fsync
	return []string{"-tasks", strconv.Itoa(p.Tasks), "-shards", strconv.Itoa(p.Shards), "-fsync", p.Fsync}
}

// truthOf is the label the generator's workers lean towards.
func truthOf(task int) int { return task % 2 }

// answerFor is worker's answer to task: the truth, flipped with
// probability flipP by a hash of (seed, task, worker), so the answer does
// not depend on the order in which requests interleaved.
func answerFor(seed uint64, task int, worker string, flipP float64) int {
	h := mix(seed, uint64(task), fnv64(worker))
	if float64(h>>11)/(1<<53) < flipP {
		return 1 - truthOf(task)
	}
	return truthOf(task)
}

// roundTrip is one worker turn on conn: fetch a task, answer it. It
// reports whether the answer was acked; an idle 204 poll is a protocol
// outcome, logged as a miss, not a failure.
func (w *workerLoop) roundTrip(x *runCtx, conn int, phase string) bool {
	p, log := x.p.WorkerLoop, &w.conns[conn]
	start := time.Now()
	log.turns++
	worker := fmt.Sprintf("c%d-w%d", conn, log.turns%p.WorkersPerConn)
	taskID, answerID := "", ""
	if x.traced {
		taskID = fmt.Sprintf("lg-%s-t-%d-%d", phase, conn, log.turns)
		answerID = fmt.Sprintf("lg-%s-a-%d-%d", phase, conn, log.turns)
	}
	r, ok := w.srv.cli.do(http.MethodGet, "/api/task?worker="+worker, nil, taskID)
	if !ok {
		return false
	}
	if r.status == http.StatusNoContent {
		log.misses++
		return false
	}
	var task struct {
		ID int `json:"id"`
	}
	if r.status != http.StatusOK || json.Unmarshal(r.body, &task) != nil || task.ID == 0 {
		x.tally.fail("GET /api/task: HTTP %d: %s", r.status, clip(r.body))
		return false
	}
	body := fmt.Sprintf(`{"task":%d,"worker":%q,"option":%d}`, task.ID, worker, answerFor(x.seed, task.ID, worker, p.FlipP))
	a, ok := w.srv.cli.expect(http.StatusOK, http.MethodPost, "/api/answer", []byte(body), answerID)
	if !ok {
		return false
	}
	log.service = append(log.service, ms(time.Since(start)))
	if x.traced {
		log.tasks = append(log.tasks, tracedOp{taskID, ms(r.dur)})
		log.answers = append(log.answers, tracedOp{answerID, ms(a.dur)})
	}
	return true
}

// closedLoop runs n round trips, half on each connection back to back,
// and returns their service times in ms and the wall time.
func (w *workerLoop) closedLoop(x *runCtx, n int, phase string) (lat []float64, wall time.Duration) {
	var first [maxConns]int
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < maxConns; c++ {
		first[c] = len(w.conns[c].service)
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < n; i += maxConns {
				w.roundTrip(x, c, phase)
			}
		}(c)
	}
	wg.Wait()
	wall = time.Since(start)
	for c := range w.conns {
		lat = append(lat, w.conns[c].service[first[c]:]...)
	}
	w.acked += len(lat)
	return lat, wall
}

func (w *workerLoop) setup(x *runCtx) error {
	srv, err := x.startServer("worker_loop", w.flags(x))
	if err != nil {
		return err
	}
	w.srv = srv
	// Warm-up: connections open, code paths hot, the pool past its empty
	// state. Part of set-up, not of any measurement.
	w.closedLoop(x, x.p.WorkerLoop.WarmupRoundtrips, "warm")
	w.wal0 = srv.walBytes()
	return nil
}

func (w *workerLoop) teardown() { w.srv.stop() }

func (w *workerLoop) measure(x *runCtx) error {
	p := x.p.WorkerLoop
	var before promSample
	if x.traced {
		before = w.srv.scrape()
	}
	warm := w.acked
	for c := range w.conns {
		w.conns[c] = connLog{turns: w.conns[c].turns} // the warm-up is not part of any budget
	}
	use := startUsage(w.srv.child.pid())

	// Phase A: closed loop.
	closed, wall := w.closedLoop(x, p.ClosedRoundtrips, "closed")
	sa := x.timing("closed_roundtrip_ms", closed)
	x.metric("side_op_ms", sa.Mean, "ms")
	x.metric("loadgen.roundtrips_per_s", float64(len(closed))/wall.Seconds(), "1/s")

	// Phase B: open loop, latency from the due time.
	due := poissonSchedule(newRNG(mix(x.seed, 1)), p.OpenRoundtrips, p.OpenRatePerS)
	pc := &pacing{}
	open := runOpen(maxConns, due, pc, func(conn, _ int) bool { return w.roundTrip(x, conn, "open") })
	w.acked += len(open)
	sb := x.timing("open_roundtrip_ms", open)
	x.metric("op_p50_ms", sb.P50, "ms")
	x.metric("op_tail_ms", sb.Tail, "ms")
	x.metric("loadgen.op_p99_ms", sb.P99, "ms")
	x.pacingChecks(pc, x.p.LatenessLimitMS)

	measured := w.acked - warm
	use.report(x, measured)
	x.metric("wal_bytes_per_answer", float64(w.srv.walBytes()-w.wal0)/float64(max(measured, 1)), "B")
	misses := 0
	for c := range w.conns {
		misses += w.conns[c].misses
	}
	x.metric("assign.miss_share", float64(misses)/float64(p.ClosedRoundtrips+p.OpenRoundtrips), "ratio")

	if x.traced {
		w.layers(x, w.srv.scrape().delta(before), measured)
	}
	w.check(x)
	return nil
}

// check is the output check: every acked answer is counted and paid for,
// and inference over them recovers the planted labels.
func (w *workerLoop) check(x *runCtx) {
	p := x.p.WorkerLoop
	if st, ok := w.srv.stats(); ok {
		x.tally.check(st.TotalAnswers == w.acked, "stats total_answers %d, acked %d", st.TotalAnswers, w.acked)
		x.tally.check(int(st.BudgetSpent) == w.acked, "stats budget_spent %v, acked %d", st.BudgetSpent, w.acked)
		x.tally.check(st.Tasks == p.Tasks, "stats tasks %d, want %d", st.Tasks, p.Tasks)
		x.output("stats", st.Tasks, st.TotalAnswers, st.BudgetSpent)
	}
	if labels, ok := fetchResults(w.srv.cli, "onecoin"); ok {
		checkLabels(x, labels, p.Tasks)
		x.output("labels", len(labels))
	}
	w.srv.connectionChecks()
}

// resultDTO is one entry of GET /api/results.
type resultDTO struct {
	Task  int `json:"task"`
	Label int `json:"label"`
}

// fetchResults polls /api/results once, outside any timing.
func fetchResults(c *client, method string) ([]resultDTO, bool) {
	var labels []resultDTO
	ok := c.getJSON("/api/results?method="+method, &labels)
	return labels, ok
}

// checkLabels requires one label per task and at least 95% of them equal
// to the planted truth.
func checkLabels(x *runCtx, labels []resultDTO, tasks int) {
	seen := map[int]bool{}
	right := 0
	for _, l := range labels {
		seen[l.Task] = true
		if l.Label == truthOf(l.Task) {
			right++
		}
	}
	x.tally.check(len(labels) == tasks && len(seen) == tasks, "results hold %d labels for %d distinct tasks, want %d", len(labels), len(seen), tasks)
	x.tally.check(float64(right) >= 0.95*float64(tasks), "only %d of %d labels match the planted truth", right, tasks)
}

// layers turns the traced run's spans and counter deltas into the
// per-layer budget of a round trip.
func (w *workerLoop) layers(x *runCtx, d promSample, answers int) {
	st := newSpanStats()
	r := newRNG(mix(x.seed, 2))
	var tasks, acks []tracedOp
	var service []float64
	for c := range w.conns {
		tasks = append(tasks, w.conns[c].tasks...)
		acks = append(acks, w.conns[c].answers...)
		service = append(service, w.conns[c].service...)
	}
	fetchTraces(w.srv.cli, st, tasks, x.p.TraceSample, r)
	fetchTraces(w.srv.cli, st, acks, x.p.TraceSample, r)
	x.traceLossCheck(d)

	// The budget must add up: the wire time and every server-side self time
	// of both requests, against the round trip the client saw.
	sum := 0.0
	part := func(name string, v []float64) {
		x.metric(name+"_p50", 1000*pct(v, 50), "us")
		x.metric(name+"_mean", 1000*meanOf(v), "us")
		sum += meanOf(v)
	}
	part("server.task_self_us", st.self["/api/task"])
	part("server.answer_self_us", st.self["/api/answer"])
	part("core.assign_us", st.dur["core.assign"])
	part("core.record_us", st.dur["core.record"])
	part("durable.append_us", st.dur["wal.append"])
	part("durable.fsync_us", st.dur["wal.fsync"])
	x.metric("durable.fsync_us_p95", 1000*pct(st.dur["wal.fsync"], 95), "us")
	// One wire sample per request, so the round trip holds two.
	wire := append(append([]float64(nil), st.wire["/api/task"]...), st.wire["/api/answer"]...)
	part("loadgen.wire_us", wire)
	sum += meanOf(wire)
	if m := meanOf(service); m > 0 {
		x.metric("loadgen.roundtrip_mean_us", 1000*m, "us")
		x.metric("loadgen.budget_sum_share", sum/m, "ratio")
	}
	x.metric("assign.policy_us_mean", 1e6*d.histMean("crowdkit_assign_seconds"), "us")
	walCounters(x, d, answers)
	x.metric("loadgen.traces_missed", float64(st.missed), "count")
}

// walCounters reports the durable layer's exact counts per answer from
// the crowdkit_wal_* deltas.
func walCounters(x *runCtx, d promSample, answers int) {
	n := float64(max(answers, 1))
	x.metric("durable.fsyncs_per_answer", d.sum("crowdkit_wal_fsyncs_total")/n, "count")
	x.metric("durable.records_per_answer", d.sum("crowdkit_wal_records_total")/n, "count")
	x.metric("durable.wal_bytes_per_answer", d.sum("crowdkit_wal_bytes_total")/n, "B")
}
