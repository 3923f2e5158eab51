package e2e

import (
	"net/http"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/cql"
	"repro/internal/server"
)

// names lists a trace's span names, and the names of the events its
// spans carry, after checking that its spans form one tree.
func names(t *testing.T, tr server.TraceDTO) (spans, events []string) {
	t.Helper()
	ids := map[string]bool{}
	for _, sp := range tr.Spans {
		ids[sp.SpanID] = true
	}
	roots := 0
	for _, sp := range tr.Spans {
		spans = append(spans, sp.Name)
		for _, ev := range sp.Events {
			events = append(events, ev.Name)
		}
		if sp.ParentID == "" {
			roots++
		} else if !ids[sp.ParentID] {
			t.Errorf("trace %s: span %s's parent %s is not in the trace", tr.TraceID, sp.Name, sp.ParentID)
		}
	}
	if roots != 1 {
		t.Errorf("trace %s has %d root spans, want 1: %v", tr.TraceID, roots, spans)
	}
	return spans, events
}

// TestTraceAcrossFourLayers boots the binary with the flight recorder on
// and reads back two traces: one answer's, with spans from the HTTP, pool
// and WAL layers, and one crowd query's, with its CrowdQL spans and the
// question's publish, answer and close events.
func TestTraceAcrossFourLayers(t *testing.T) {
	p := start(t, "-tasks", "5", "-trace", "-trace-sample", "1", "-metrics",
		"-data-dir", t.TempDir(), "-fsync", "always", "-cql-dir", t.TempDir(), "-lease", "1m")

	q := task(t, p, "smoke")
	tid := p.post(t, "/api/answer", server.AnswerDTO{Task: q.ID, Worker: "smoke", Option: 1}, nil).Get("X-Trace-Id")
	if tid == "" {
		t.Fatal("POST /api/answer echoed no X-Trace-Id")
	}
	var tr server.TraceDTO
	p.get(t, "/api/trace/"+tid, &tr)
	spans, _ := names(t, tr)
	for _, want := range []string{"/api/answer", "core.record", "wal.append"} {
		if !slices.Contains(spans, want) {
			t.Errorf("answer trace spans %v lack %s", spans, want)
		}
	}

	qid := crowdQuery(t, p, "smoke", "(1,'beagle')")
	query := "/api/cql/session/smoke/query/" + qid
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(100 * time.Millisecond) {
		var page cql.QueryPage
		if p.get(t, query, &page); page.Status == cql.QueryDone {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("crowd query still %q after 30s", page.Status)
		}
		// Answer whatever each worker is handed, the crowd question among
		// it. The answers to demo tasks are incidental, so their status is
		// not checked.
		for _, w := range []string{"cw1", "cw2", "cw3"} {
			code, _, body := p.call(t, http.MethodGet, "/api/task?worker="+w, nil)
			if code == http.StatusOK {
				var ct server.TaskDTO
				decode(t, body, &ct)
				p.call(t, http.MethodPost, "/api/answer", server.AnswerDTO{Task: ct.ID, Worker: w, Option: 1})
			}
		}
	}
	var qt server.TraceDTO
	p.get(t, query+"/trace", &qt)
	spans, events := names(t, qt)
	for _, want := range []string{"cql.query", "cql.question"} {
		if !slices.Contains(spans, want) {
			t.Errorf("query trace spans %v lack %s", spans, want)
		}
	}
	if !slices.ContainsFunc(spans, func(s string) bool { return strings.HasPrefix(s, "cql.stage.") }) {
		t.Errorf("query trace spans %v hold no cql.stage.* span", spans)
	}
	for _, want := range []string{"publish", "answer", "close"} {
		if !slices.Contains(events, want) {
			t.Errorf("query trace events %v lack %s", events, want)
		}
	}

	if got := p.metrics(t)["crowdkit_trace_kept_total"]; got < 2 {
		t.Errorf("crowdkit_trace_kept_total = %v, want at least the two traces read back", got)
	}
	var index []server.TraceSummaryDTO
	p.get(t, "/api/traces?endpoint=/api/answer", &index)
	if !slices.ContainsFunc(index, func(s server.TraceSummaryDTO) bool { return s.TraceID == tid && s.Endpoint == "/api/answer" }) {
		t.Errorf("/api/traces?endpoint=/api/answer = %+v, lacks trace %s", index, tid)
	}
}
