package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// resultsPoll is the requester reading results while the crowd keeps
// answering: connection 1 posts /api/answers batches on a seeded Poisson
// schedule, connection 2 polls /api/results on a fixed period, both open
// loop, both on the same pool shards. Inference (warm EM over a growing dataset) and the
// rendering of one label per task do the work; the WAL only appends.
type resultsPoll struct {
	srv  *server
	sent int // answers generated so far; answer k is fixed by (seed, k)
	wal0 int64
}

func (w *resultsPoll) flags(x *runCtx) []string {
	p := x.p.ResultsPoll
	x.res.Flush = p.Fsync
	return []string{"-tasks", strconv.Itoa(p.Tasks), "-shards", strconv.Itoa(p.Shards), "-fsync", p.Fsync}
}

// batchBody renders answers [from, from+n) of the seeded answer stream:
// answer k goes to task k mod tasks from that task's (k div tasks)-th
// worker, so no (task, worker) pair ever repeats.
func batchBody(seed uint64, tasks int, flipP float64, from, n int) []byte {
	var b bytes.Buffer
	b.WriteByte('[')
	for k := from; k < from+n; k++ {
		if k > from {
			b.WriteByte(',')
		}
		task := k%tasks + 1
		worker := "w" + strconv.Itoa(k/tasks)
		fmt.Fprintf(&b, `{"task":%d,"worker":%q,"option":%d}`, task, worker, answerFor(seed, task, worker, flipP))
	}
	b.WriteByte(']')
	return b.Bytes()
}

// postBatch sends one batch, which the child must record in full.
func postBatch(c *client, body []byte, n int, tid string) (reply, bool) {
	r, ok := c.expect(http.StatusOK, http.MethodPost, "/api/answers", body, tid)
	if !ok {
		return r, false
	}
	var out struct {
		Recorded int `json:"recorded"`
	}
	if err := json.Unmarshal(r.body, &out); err != nil || out.Recorded != n {
		c.tally.fail("POST /api/answers: recorded %d of %d: %s", out.Recorded, n, clip(r.body))
		return r, false
	}
	return r, true
}

// preload ingests total answers in batches of size over both connections.
// The batches are rendered before the first is sent, so set-up time is the
// child's ingest, not the generator's formatting.
func preload(x *runCtx, c *client, tasks int, flipP float64, total, size int) {
	var bodies [][]byte
	var sizes []int
	for from := 0; from < total; from += size {
		n := min(size, total-from)
		bodies = append(bodies, batchBody(x.seed, tasks, flipP, from, n))
		sizes = append(sizes, n)
	}
	var wg sync.WaitGroup
	for conn := 0; conn < maxConns; conn++ {
		wg.Add(1)
		go func(conn int) {
			defer wg.Done()
			for i := conn; i < len(bodies); i += maxConns {
				postBatch(c, bodies[i], sizes[i], "")
			}
		}(conn)
	}
	wg.Wait()
}

func (w *resultsPoll) setup(x *runCtx) error {
	p := x.p.ResultsPoll
	srv, err := x.startServer("results_poll", w.flags(x))
	if err != nil {
		return err
	}
	w.srv = srv
	preload(x, srv.cli, p.Tasks, p.FlipP, p.PreloadAnswers, p.PreloadBatch)
	w.sent = p.PreloadAnswers
	// The first poll runs EM cold and builds the dataset; users pay that
	// once per boot, so it belongs to set-up.
	fetchResults(srv.cli, p.Method)
	w.wal0 = srv.walBytes()
	return nil
}

func (w *resultsPoll) teardown() { w.srv.stop() }

func (w *resultsPoll) measure(x *runCtx) error {
	p := x.p.ResultsPoll
	var before promSample
	if x.traced {
		before = w.srv.scrape()
	}
	use := startUsage(w.srv.child.pid())

	bodies := make([][]byte, p.IngestBatches)
	for i := range bodies {
		bodies[i] = batchBody(x.seed, p.Tasks, p.FlipP, w.sent+i*p.IngestBatch, p.IngestBatch)
	}
	// Uploads arrive independently (Poisson); the requester's dashboard
	// refreshes on a fixed period. Two fixed periods would lock a constant
	// share of the uploads onto the instants a poll starts.
	ingestDue := poissonSchedule(newRNG(mix(x.seed, 5)), p.IngestBatches, p.IngestPerS)
	pollDue := fixedSchedule(p.Polls, time.Duration(p.PollEveryMS*float64(time.Millisecond)))

	var (
		wg                  sync.WaitGroup
		ingest, polls       []float64
		ingestPC, pollPC    pacing
		ingestOps, pollOps  []tracedOp
		acked               int
		lastVersion         uint64
		versionsOK, countOK = true, true
		respBytes           []float64
		last                []byte
	)
	wg.Add(2)
	go func() {
		defer wg.Done()
		ingest = runOpen(1, ingestDue, &ingestPC, func(_, i int) bool {
			tid := ""
			if x.traced {
				tid = fmt.Sprintf("lg-ingest-%d", i)
			}
			r, ok := postBatch(w.srv.cli, bodies[i], p.IngestBatch, tid)
			if ok {
				acked += p.IngestBatch
				ingestOps = append(ingestOps, tracedOp{tid, ms(r.dur)})
			}
			return ok
		})
	}()
	go func() {
		defer wg.Done()
		polls = runOpen(1, pollDue, &pollPC, func(_, i int) bool {
			tid := ""
			if x.traced {
				tid = fmt.Sprintf("lg-poll-%d", i)
			}
			r, ok := w.srv.cli.expect(http.StatusOK, http.MethodGet, "/api/results?method="+p.Method, nil, tid)
			if !ok {
				return false
			}
			// Cheap per-poll checks; the last body is parsed in full below.
			if bytes.Count(r.body, []byte(`"task":`)) != p.Tasks {
				countOK = false
			}
			v, _ := strconv.ParseUint(r.header.Get("X-Results-Version"), 10, 64)
			if v < lastVersion {
				versionsOK = false
			}
			lastVersion = v
			respBytes = append(respBytes, float64(len(r.body)))
			pollOps = append(pollOps, tracedOp{tid, ms(r.dur)})
			last = r.body
			return true
		})
	}()
	wg.Wait()
	w.sent += p.IngestBatches * p.IngestBatch

	sp := x.timing("poll_ms", polls)
	x.metric("op_p50_ms", sp.P50, "ms")
	x.metric("op_tail_ms", sp.Tail, "ms")
	x.metric("loadgen.op_p99_ms", sp.P99, "ms")
	si := x.timing("ingest_batch_ms", ingest)
	x.metric("side_op_ms", si.P50, "ms")
	x.metric("wal_bytes_per_answer", float64(w.srv.walBytes()-w.wal0)/float64(max(acked, 1)), "B")
	use.report(x, len(polls)+len(ingest))
	x.metric("server.results_bytes", pct(respBytes, 50), "B")
	// One pacing verdict for the run, over both schedules; the ingest
	// schedule's backlog comes last, it being the denser one.
	pollPC.lateMS = append(pollPC.lateMS, ingestPC.lateMS...)
	pollPC.backlogs = ingestPC.backlogs
	x.pacingChecks(&pollPC, p.LatenessLimitMS)

	if x.traced {
		w.layers(x, w.srv.scrape().delta(before), ingestOps, pollOps, acked)
	}

	x.tally.check(countOK, "a poll did not hold one label per task")
	x.tally.check(versionsOK, "X-Results-Version went backwards across polls")
	var labels []resultDTO
	if x.tally.check(json.Unmarshal(last, &labels) == nil, "last poll is not a label list") {
		x.tally.check(len(labels) == p.Tasks, "last poll holds %d labels, want %d", len(labels), p.Tasks)
	}
	if st, ok := w.srv.stats(); ok {
		want := p.PreloadAnswers + acked
		x.tally.check(st.TotalAnswers == want, "stats total_answers %d, acked %d", st.TotalAnswers, want)
		x.tally.check(int(st.BudgetSpent) == want, "stats budget_spent %v, acked %d", st.BudgetSpent, want)
		x.output("stats", st.Tasks, st.TotalAnswers, st.BudgetSpent)
	}
	// With ingest over, the answer set is a function of the seed alone, and
	// so are the labels inferred from it.
	if final, ok := fetchResults(w.srv.cli, p.Method); ok {
		checkLabels(x, final, p.Tasks)
		for _, l := range final {
			x.output(l.Task, "=", l.Label)
		}
	}
	w.srv.connectionChecks()
	return nil
}

func (w *resultsPoll) layers(x *runCtx, d promSample, ingestOps, pollOps []tracedOp, answers int) {
	st := newSpanStats()
	r := newRNG(mix(x.seed, 2))
	fetchTraces(w.srv.cli, st, pollOps, x.p.TraceSample, r)
	fetchTraces(w.srv.cli, st, ingestOps, x.p.TraceSample, r)
	x.traceLossCheck(d)

	polls := float64(max(len(pollOps), 1))
	runs := d.sum("crowdkit_em_runs_total")
	x.metric("truth.em_run_ms_p50", pct(st.dur["em.run"], 50), "ms")
	x.metric("truth.em_runs_per_poll", runs/polls, "count")
	if runs > 0 {
		x.metric("truth.em_iterations_per_run", d.sum("crowdkit_em_iterations_total")/runs, "count")
	}
	x.metric("server.results_render_ms_p50", pct(st.self["/api/results"], 50), "ms")
	x.metric("server.answers_self_ms_p50", pct(st.self["/api/answers"], 50), "ms")
	x.metric("server.results_full_builds", d.sum("crowdkit_results_full_builds_total"), "count")
	x.metric("server.results_delta_builds", d.sum("crowdkit_results_delta_builds_total"), "count")
	x.metric("server.results_group_skips", d.sum("crowdkit_results_group_skips_total"), "count")
	x.metric("server.results_flight_shared", d.sum("crowdkit_results_flight_shared_total"), "count")
	hits, misses := d.sum("crowdkit_results_warm_hits_total"), d.sum("crowdkit_results_warm_misses_total")
	if hits+misses > 0 {
		x.metric("server.results_warm_hit_share", hits/(hits+misses), "ratio")
	}
	wire := append(append([]float64(nil), st.wire["/api/results"]...), st.wire["/api/answers"]...)
	x.metric("loadgen.wire_us_p50", 1000*pct(wire, 50), "us")
	x.metric("loadgen.wire_us_mean", 1000*meanOf(wire), "us")
	// The batch path journals without request context, so it has no WAL
	// spans; the always-on histograms cover it.
	walHistograms(x, d)
	walCounters(x, d, answers)
	x.metric("loadgen.traces_missed", float64(st.missed), "count")
}

// walHistograms reports append and fsync times from the crowdkit_wal_*
// histograms, for paths that record no WAL spans.
func walHistograms(x *runCtx, d promSample) {
	x.metric("durable.append_us_p50", 1e6*d.histQuantile(0.5, "crowdkit_wal_append_seconds"), "us")
	x.metric("durable.append_us_mean", 1e6*d.histMean("crowdkit_wal_append_seconds"), "us")
	x.metric("durable.fsync_us_p50", 1e6*d.histQuantile(0.5, "crowdkit_wal_fsync_seconds"), "us")
	x.metric("durable.fsync_us_p95", 1e6*d.histQuantile(0.95, "crowdkit_wal_fsync_seconds"), "us")
	x.metric("durable.fsync_us_mean", 1e6*d.histMean("crowdkit_wal_fsync_seconds"), "us")
}
