package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/assign"
	"repro/internal/cql"
	"repro/internal/durable"
	"repro/internal/obs"
	"repro/internal/stats"
)

// getTrace fetches one trace DTO; ok is false on 404.
func getTrace(t *testing.T, base, id string) (TraceDTO, bool) {
	t.Helper()
	var dto TraceDTO
	code := doJSON(t, "GET", base+"/api/trace/"+id, nil, &dto)
	if code == http.StatusNotFound {
		return dto, false
	}
	if code != http.StatusOK {
		t.Fatalf("GET /api/trace/%s: status %d", id, code)
	}
	return dto, true
}

// spanNames indexes a trace's spans by name (span names in one request
// trace are unique in these tests).
func spanNames(dto TraceDTO) map[string]SpanDTO {
	m := make(map[string]SpanDTO, len(dto.Spans))
	for _, sp := range dto.Spans {
		m[sp.Name] = sp
	}
	return m
}

// TestAnswerTraceLinksLayers pins the tentpole acceptance path: submit
// an answer against a durable (fsync-always) tracing server, read back
// the trace by the echoed X-Trace-Id, and find linked spans from the
// HTTP, pool-shard, and WAL layers in one tree.
func TestAnswerTraceLinksLayers(t *testing.T) {
	store, _, err := durable.Open(t.TempDir(), durable.Options{Fsync: durable.FsyncAlways, Segments: testShards()})
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(3)
	pool := testPool(rng, 4)
	col := obs.NewCollector(obs.CollectorOptions{})
	srv, err := New(pool, assign.FewestAnswers{}, nil, nil,
		WithShards(testShards()), WithDurability(store), WithTracing(col))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(func() { ts.Close(); srv.Close() })

	// Fetch a task, then submit the answer with a raw request so the
	// echoed X-Trace-Id is observable.
	client := NewClient(ts.URL)
	dto, ok, err := client.FetchTask("w1")
	if err != nil || !ok {
		t.Fatalf("FetchTask: %v %v", ok, err)
	}
	body, _ := json.Marshal(AnswerDTO{Task: dto.ID, Worker: "w1", Option: 1})
	resp, err := http.Post(ts.URL+"/api/answer", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("answer rejected: %d", resp.StatusCode)
	}
	tid := resp.Header.Get(TraceHeader)
	if tid == "" {
		t.Fatal("no X-Trace-Id echoed")
	}

	trace, ok := getTrace(t, ts.URL, tid)
	if !ok {
		t.Fatalf("trace %s not retrievable", tid)
	}
	if !trace.Complete || trace.Error {
		t.Fatalf("trace = %+v, want complete and error-free", trace)
	}
	spans := spanNames(trace)
	root, ok := spans["/api/answer"]
	if !ok || root.ParentID != "" {
		t.Fatalf("missing HTTP root span: %+v", trace.Spans)
	}
	for _, name := range []string{"core.record", "wal.append", "wal.fsync"} {
		sp, ok := spans[name]
		if !ok {
			t.Fatalf("span %s missing from answer trace: %+v", name, trace.Spans)
		}
		if sp.ParentID != root.SpanID {
			t.Errorf("span %s parent = %s, want HTTP root %s", name, sp.ParentID, root.SpanID)
		}
	}
	if got := spans["core.record"].Attrs["task"]; got != float64(dto.ID) {
		t.Errorf("core.record task attr = %v, want %v", got, dto.ID)
	}
	if got := root.Attrs["status"]; got != float64(200) {
		t.Errorf("root status attr = %v, want 200", got)
	}

	// The assignment request traced too, with the policy span under it.
	sums := tracesIndex(t, ts.URL, "endpoint=/api/task")
	if len(sums) != 1 {
		t.Fatalf("task traces = %+v, want 1", sums)
	}
	taskTrace, ok := getTrace(t, ts.URL, sums[0].TraceID)
	if !ok {
		t.Fatal("task trace not retrievable")
	}
	if _, ok := spanNames(taskTrace)["core.assign"]; !ok {
		t.Fatalf("core.assign span missing: %+v", taskTrace.Spans)
	}
}

// tracesIndex fetches /api/traces with a raw query string.
func tracesIndex(t *testing.T, base, query string) []TraceSummaryDTO {
	t.Helper()
	url := base + "/api/traces"
	if query != "" {
		url += "?" + query
	}
	var out []TraceSummaryDTO
	if code := doJSON(t, "GET", url, nil, &out); code != http.StatusOK {
		t.Fatalf("GET /api/traces?%s: status %d", query, code)
	}
	return out
}

func TestTraceEndpointsValidation(t *testing.T) {
	col := obs.NewCollector(obs.CollectorOptions{})
	srv, err := New(testPool(stats.NewRNG(1), 2), assign.FewestAnswers{}, nil, nil,
		WithShards(testShards()), WithTracing(col))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(func() { ts.Close(); srv.Close() })

	if _, ok := getTrace(t, ts.URL, "deadbeefdeadbeef"); ok {
		t.Fatal("unknown trace id should 404")
	}
	for _, q := range []string{"min_ms=nope", "min_ms=-1", "limit=x", "limit=-2"} {
		if code := doJSON(t, "GET", ts.URL+"/api/traces?"+q, nil, nil); code != http.StatusBadRequest {
			t.Errorf("query %q: status %d, want 400", q, code)
		}
	}
	// A couple of requests, then the index filters by endpoint.
	client := NewClient(ts.URL)
	if _, _, err := client.FetchTask("w1"); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Stats(); err != nil {
		t.Fatal(err)
	}
	if got := tracesIndex(t, ts.URL, "endpoint=/api/stats"); len(got) != 1 || got[0].Endpoint != "/api/stats" {
		t.Fatalf("endpoint filter = %+v", got)
	}
	if got := tracesIndex(t, ts.URL, "min_ms=60000"); len(got) != 0 {
		t.Fatalf("min_ms filter = %+v, want none", got)
	}
}

// TestCQLQueryTraceSpans pins the CrowdQL acceptance path: a crowd
// query's trace — fetched through the query-handle trace route — shows
// the statement and plan-stage spans and one child span per crowd
// question whose events record publish, each answer arrival, and close.
func TestCQLQueryTraceSpans(t *testing.T) {
	col := obs.NewCollector(obs.CollectorOptions{})
	ts, _ := newCQLTestServer(t, nil, CQLConfig{Redundancy: 2}, WithTracing(col))
	base := ts.URL
	client := NewClient(base)
	workers := []string{"w1", "w2"}

	cqlCreate(t, base, "crowd")
	cqlExecuteDone(t, base, "crowd", `
		CREATE TABLE pets (id INT, kind STRING);
		INSERT INTO pets VALUES (1,'beagle'),(2,'poodle')`)

	page := cqlExecute(t, base, "crowd",
		`SELECT * FROM pets WHERE CROWDFILTER('is it a dog?', kind)`)
	if page.TraceID == "" {
		t.Fatal("running crowd query page carries no trace_id")
	}
	qid := page.Query
	traceURL := fmt.Sprintf("%s/api/cql/session/crowd/query/%s/trace", base, qid)

	// Mid-flight: the pending trace is already readable through the
	// handle route (crowd queries run for a long time).
	var mid TraceDTO
	if code := doJSON(t, "GET", traceURL, nil, &mid); code != http.StatusOK {
		t.Fatalf("mid-flight trace: status %d", code)
	}
	if mid.Complete {
		t.Fatal("trace complete while the query is still running")
	}
	if mid.TraceID != page.TraceID {
		t.Fatalf("trace route id %s != page trace_id %s", mid.TraceID, page.TraceID)
	}

	deadline := time.Now().Add(10 * time.Second)
	for page.Status == cql.QueryRunning {
		if time.Now().After(deadline) {
			t.Fatalf("crowd query never finished: %+v", page)
		}
		answerRound(t, client, workers, 1)
		time.Sleep(time.Millisecond)
		page = cqlPoll(t, base, "crowd", qid, "", 0)
	}
	if page.Status != cql.QueryDone {
		t.Fatalf("query status %s error %q", page.Status, page.Error)
	}

	var trace TraceDTO
	if code := doJSON(t, "GET", traceURL, nil, &trace); code != http.StatusOK {
		t.Fatalf("final trace: status %d", code)
	}
	if !trace.Complete {
		t.Fatal("trace not complete after query done")
	}

	var (
		rootID    string
		questions []SpanDTO
		stages    int
	)
	byID := map[string]SpanDTO{}
	for _, sp := range trace.Spans {
		byID[sp.SpanID] = sp
		switch {
		case sp.Name == "cql.query":
			rootID = sp.SpanID
		case sp.Name == "cql.question":
			questions = append(questions, sp)
		case len(sp.Name) > 10 && sp.Name[:10] == "cql.stage.":
			stages++
		}
	}
	if rootID == "" {
		t.Fatalf("no cql.query root span: %+v", trace.Spans)
	}
	if stages == 0 {
		t.Fatalf("no cql.stage.* spans: %+v", trace.Spans)
	}
	// One child span per crowd question (two rows at the filter).
	if len(questions) != 2 {
		t.Fatalf("got %d cql.question spans, want 2", len(questions))
	}
	for _, q := range questions {
		if q.Attrs["redundancy"] != float64(2) {
			t.Errorf("question span attrs = %v, want redundancy 2", q.Attrs)
		}
		// Ancestry: question -> ... -> cql.query root.
		seen := 0
		for cur := q; cur.ParentID != ""; {
			p, ok := byID[cur.ParentID]
			if !ok {
				t.Fatalf("question span %s has dangling parent %s", q.SpanID, cur.ParentID)
			}
			cur = p
			if seen++; seen > len(trace.Spans) {
				t.Fatal("parent cycle")
			}
		}
		// The lifecycle events, in order: publish, two answers, close.
		var names []string
		answers := 0
		for _, ev := range q.Events {
			names = append(names, ev.Name)
			if ev.Name == "answer" {
				answers++
			}
		}
		if len(names) < 4 || names[0] != "publish" || names[len(names)-1] != "close" {
			t.Errorf("question events = %v, want publish ... close", names)
		}
		if answers != 2 {
			t.Errorf("question recorded %d answer events, want 2", answers)
		}
	}

	// The execute request's own HTTP trace is separate from the query's.
	if sums := tracesIndex(t, ts.URL, "endpoint=/api/cql/execute"); len(sums) == 0 {
		t.Error("execute request left no HTTP trace")
	} else if sums[0].TraceID == page.TraceID {
		t.Error("query trace must not reuse the execute request's trace ID")
	}
}

// TestTracingOffIdentity pins the free-when-off contract at the API
// surface: without WithTracing the trace endpoints do not exist, CQL
// pages carry no trace_id, and the serving behavior is unchanged.
func TestTracingOffIdentity(t *testing.T) {
	ts, srv := newCQLTestServer(t, nil, CQLConfig{})
	if srv.TraceCollector() != nil {
		t.Fatal("collector present without WithTracing")
	}
	if code := doJSON(t, "GET", ts.URL+"/api/trace/abc", nil, nil); code != http.StatusNotFound {
		t.Fatalf("GET /api/trace/{id} without tracing: status %d, want 404", code)
	}
	if code := doJSON(t, "GET", ts.URL+"/api/traces", nil, nil); code != http.StatusNotFound {
		t.Fatalf("GET /api/traces without tracing: status %d, want 404", code)
	}
	cqlCreate(t, ts.URL, "plain")
	page := cqlExecuteDone(t, ts.URL, "plain", `
		CREATE TABLE t (id INT);
		INSERT INTO t VALUES (1);
		SELECT id FROM t`)
	if page.TraceID != "" {
		t.Fatalf("page trace_id = %q without tracing, want empty", page.TraceID)
	}
	if code := doJSON(t, "GET",
		ts.URL+"/api/cql/session/plain/query/"+page.Query+"/trace", nil, nil); code != http.StatusNotFound {
		t.Fatalf("query trace route without tracing: status %d, want 404", code)
	}
}

// TestClientTraceIDStableAcrossRetries pins satellite 1: one trace ID
// per logical operation, reused verbatim on every retry attempt, and
// surfaced on the APIError a failing operation returns.
func TestClientTraceIDStableAcrossRetries(t *testing.T) {
	var mu struct {
		ids   []string
		calls atomic.Int32
	}
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.ids = append(mu.ids, r.Header.Get(TraceHeader))
		if mu.calls.Add(1) <= 2 {
			w.WriteHeader(http.StatusBadGateway)
			return
		}
		w.WriteHeader(http.StatusOK)
		fmt.Fprint(w, `{"total_answers":0}`)
	}))
	t.Cleanup(backend.Close)

	c := NewClient(backend.URL, WithRetry(3, time.Millisecond, 2*time.Millisecond))
	if _, err := c.Stats(); err != nil {
		t.Fatalf("stats after retries: %v", err)
	}
	if len(mu.ids) != 3 {
		t.Fatalf("saw %d attempts, want 3", len(mu.ids))
	}
	if mu.ids[0] == "" {
		t.Fatal("client sent no X-Trace-Id")
	}
	if mu.ids[0] != mu.ids[1] || mu.ids[1] != mu.ids[2] {
		t.Fatalf("trace ID changed across retries: %v", mu.ids)
	}

	// A distinct operation mints a distinct ID.
	_, _ = c.Stats()
	if last := mu.ids[len(mu.ids)-1]; last == mu.ids[0] {
		t.Fatal("second operation reused the first operation's trace ID")
	}
}

func TestAPIErrorCarriesTraceID(t *testing.T) {
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Echo the trace header the way the real middleware does.
		w.Header().Set(TraceHeader, r.Header.Get(TraceHeader))
		w.WriteHeader(http.StatusConflict)
		fmt.Fprint(w, `{"error":"duplicate answer"}`)
	}))
	t.Cleanup(backend.Close)

	c := NewClient(backend.URL)
	err := c.SubmitAnswer(AnswerDTO{Task: 1, Worker: "w1", Option: 0})
	if err == nil {
		t.Fatal("want an APIError")
	}
	var ae *APIError
	if !errors.As(err, &ae) {
		t.Fatalf("error %T is not an APIError: %v", err, err)
	}
	if ae.TraceID == "" {
		t.Fatalf("APIError carries no trace ID: %+v", ae)
	}
	want := fmt.Sprintf("server: duplicate answer (HTTP 409) [trace %s]", ae.TraceID)
	if ae.Error() != want {
		t.Fatalf("Error() = %q, want %q", ae.Error(), want)
	}
}

// TestEMRunSpanInResultsTrace pins the inference layer: a traced
// /api/results poll records an em.run span carrying per-iteration
// convergence events from the EM observer.
func TestEMRunSpanInResultsTrace(t *testing.T) {
	rng := stats.NewRNG(7)
	pool := testPool(rng, 10)
	col := obs.NewCollector(obs.CollectorOptions{})
	srv, err := New(pool, assign.FewestAnswers{}, nil, nil,
		WithShards(testShards()), WithTracing(col))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(func() { ts.Close(); srv.Close() })
	client := NewClient(ts.URL)

	for w := 0; w < 3; w++ {
		for _, id := range pool.TaskIDs() {
			err := client.SubmitAnswer(AnswerDTO{Task: id, Worker: fmt.Sprintf("w%d", w), Option: rng.Intn(2)})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	code, body, _ := getResults(t, ts.URL, "onecoin")
	if code != http.StatusOK {
		t.Fatalf("results poll: status %d", code)
	}
	sums := tracesIndex(t, ts.URL, "endpoint=/api/results")
	if len(sums) == 0 {
		t.Fatal("no /api/results trace kept")
	}
	trace, ok := getTrace(t, ts.URL, sums[0].TraceID)
	if !ok {
		t.Fatal("results trace not retrievable")
	}
	em, ok := spanNames(trace)["em.run"]
	if !ok {
		t.Fatalf("no em.run span: %+v", trace.Spans)
	}
	// The poll's own phases ride on the root span as attributes, not as
	// child spans: its self time must stay "everything but em.run".
	root := spanNames(trace)["/api/results"]
	for _, key := range []string{"results.snapshot_us", "results.dataset_us", "results.encode_us"} {
		if _, ok := root.Attrs[key].(float64); !ok {
			t.Errorf("root span attr %s = %v, want a number", key, root.Attrs[key])
		}
	}
	if got := root.Attrs["results.bytes"]; got != float64(len(body)) {
		t.Errorf("root span results.bytes = %v, want %d", got, len(body))
	}
	if got := root.Attrs["results.delta_answers"]; got != float64(3*len(pool.TaskIDs())) {
		t.Errorf("root span results.delta_answers = %v, want every answer of the cold build", got)
	}
	for _, sp := range trace.Spans {
		if sp.ParentID == root.SpanID && sp.Name != "em.run" {
			t.Errorf("unexpected child span %q of the results root", sp.Name)
		}
	}
	if em.Attrs["em.method"] != "onecoin" || em.Attrs["converged"] != true {
		t.Errorf("em.run attrs = %v, want method onecoin converged", em.Attrs)
	}
	iters := 0
	for _, ev := range em.Events {
		if ev.Name == "em.iteration" {
			iters++
		}
	}
	if iters == 0 {
		t.Fatal("em.run span has no em.iteration events")
	}
}

// TestLeaseReaperSweepTraced pins satellite 2 for the reaper: an
// expiring sweep records a bg.lease-reaper root trace; idle sweeps leave
// nothing behind.
func TestLeaseReaperSweepTraced(t *testing.T) {
	rng := stats.NewRNG(5)
	pool := testPool(rng, 2)
	col := obs.NewCollector(obs.CollectorOptions{})
	srv, err := New(pool, assign.FewestAnswers{}, nil, nil,
		WithShards(testShards()), WithTracing(col), WithLeaseTTL(5*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(func() { ts.Close(); srv.Close() })
	client := NewClient(ts.URL)

	// Take a lease and abandon it; the reaper must sweep it.
	if _, ok, err := client.FetchTask("ghost"); err != nil || !ok {
		t.Fatalf("FetchTask: %v %v", ok, err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for srv.ExpiredLeases() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("lease never expired")
		}
		time.Sleep(time.Millisecond)
	}
	sums := col.Traces(obs.TraceFilter{Endpoint: "bg.lease-reaper"})
	if len(sums) != 1 {
		t.Fatalf("reaper traces = %+v, want exactly one (idle ticks must discard)", sums)
	}
	trace, ok := col.Trace(sums[0].TraceID)
	if !ok || len(trace.Spans) != 1 {
		t.Fatalf("reaper trace = %+v", trace)
	}
	var expired any
	for _, a := range trace.Spans[0].Attrs {
		if a.Key == "expired" {
			expired = a.Value()
		}
	}
	if expired != int64(1) {
		t.Fatalf("sweep expired attr = %v, want 1", expired)
	}
}

// TestTracingOffOverhead compares serving throughput with tracing off
// (the shipped default) against the same server with the collector
// attached and sampling everything. The tracing-off path must not be
// slower than tracing-on beyond noise — it does strictly less work — and
// tracing-on must stay within a small multiple, bounding what the
// instrumentation added to the hot path. Tolerances are generous: this
// guards against an accidental always-on slow path, not a perf budget.
func TestTracingOffOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark comparison; skipped in -short")
	}
	run := func(opts ...Option) float64 {
		res := testing.Benchmark(func(b *testing.B) {
			benchServer(b, false, 4, opts...)
		})
		return float64(res.NsPerOp())
	}
	// Interleave and keep the faster of two runs per mode to damp
	// scheduler noise.
	min := func(a, b float64) float64 {
		if a < b {
			return a
		}
		return b
	}
	off := run()
	on := run(WithTracing(obs.NewCollector(obs.CollectorOptions{})))
	off = min(off, run())
	on = min(on, run(WithTracing(obs.NewCollector(obs.CollectorOptions{}))))
	t.Logf("tracing off: %.0f ns/op, tracing on: %.0f ns/op (%.2fx)", off, on, on/off)
	if off > on*1.5 {
		t.Fatalf("tracing-off path slower than tracing-on beyond noise: off=%.0f on=%.0f ns/op", off, on)
	}
	if on > off*3 {
		t.Fatalf("tracing-on overhead above bound: off=%.0f on=%.0f ns/op", off, on)
	}
}
