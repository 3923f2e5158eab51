package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/assign"
	"repro/internal/core"
	"repro/internal/cql"
)

// newCQLTestServer builds a server with the CrowdQL service mounted.
func newCQLTestServer(t *testing.T, budget *core.Budget, cfg CQLConfig, opts ...Option) (*httptest.Server, *Server) {
	t.Helper()
	if cfg.ExecuteGrace == 0 {
		// Machine statements still look synchronous at 5ms and crowd tests
		// do not sit out the full default grace.
		cfg.ExecuteGrace = 5 * time.Millisecond
	}
	opts = append([]Option{WithShards(testShards()), WithCQL(cfg)}, opts...)
	srv, err := New(core.NewPool(), assign.FewestAnswers{}, budget, nil, opts...)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(func() { ts.Close(); srv.Close() })
	return ts, srv
}

// doJSON performs one request with a JSON body and decodes the response.
func doJSON(t *testing.T, method, url string, body, out any) int {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("%s %s: bad response %q: %v", method, url, raw, err)
		}
	}
	return resp.StatusCode
}

// cqlCreate creates a session over HTTP.
func cqlCreate(t *testing.T, base, name string) {
	t.Helper()
	if code := doJSON(t, "POST", base+"/api/cql/session",
		CQLSessionDTO{Session: name}, nil); code != http.StatusOK {
		t.Fatalf("create session %q: status %d", name, code)
	}
}

// cqlExecute runs src and returns the first page of the handle.
func cqlExecute(t *testing.T, base, session, src string) cql.QueryPage {
	t.Helper()
	var page cql.QueryPage
	code := doJSON(t, "POST", base+"/api/cql/session/"+session+"/execute",
		CQLExecuteDTO{Src: src}, &page)
	if code != http.StatusOK {
		t.Fatalf("execute %q: status %d", src, code)
	}
	return page
}

// cqlPoll fetches one page of a query handle.
func cqlPoll(t *testing.T, base, session, qid, token string, limit int) cql.QueryPage {
	t.Helper()
	url := fmt.Sprintf("%s/api/cql/session/%s/query/%s?page_token=%s&limit=%d",
		base, session, qid, token, limit)
	var page cql.QueryPage
	if code := doJSON(t, "GET", url, nil, &page); code != http.StatusOK {
		t.Fatalf("poll %s: status %d", qid, code)
	}
	return page
}

// cqlExecuteDone runs src and polls until the handle resolves.
func cqlExecuteDone(t *testing.T, base, session, src string) cql.QueryPage {
	t.Helper()
	page := cqlExecute(t, base, session, src)
	deadline := time.Now().Add(5 * time.Second)
	for page.Status == cql.QueryRunning {
		if time.Now().After(deadline) {
			t.Fatalf("query %s stuck running", page.Query)
		}
		time.Sleep(time.Millisecond)
		page = cqlPoll(t, base, session, page.Query, "", 0)
	}
	if page.Status != cql.QueryDone {
		t.Fatalf("execute %q: status %s error %q", src, page.Status, page.Error)
	}
	return page
}

func TestCQLHTTPMachineWalkthrough(t *testing.T) {
	ts, _ := newCQLTestServer(t, nil, CQLConfig{})
	base := ts.URL

	if code := doJSON(t, "POST", base+"/api/cql/session",
		CQLSessionDTO{Session: "bad name!"}, nil); code != http.StatusBadRequest {
		t.Fatalf("invalid session name: status %d", code)
	}
	cqlCreate(t, base, "demo")
	if code := doJSON(t, "POST", base+"/api/cql/session",
		CQLSessionDTO{Session: "demo"}, nil); code != http.StatusBadRequest {
		t.Fatalf("duplicate session: status %d", code)
	}
	var list CQLSessionListDTO
	if code := doJSON(t, "GET", base+"/api/cql/sessions", nil, &list); code != http.StatusOK {
		t.Fatalf("list sessions: status %d", code)
	}
	if len(list.Sessions) != 1 || list.Sessions[0] != "demo" {
		t.Fatalf("sessions = %v", list.Sessions)
	}

	// executeMulti: one script, handle resolves to the last statement.
	page := cqlExecuteDone(t, base, "demo", `
		CREATE TABLE people (id INT, name STRING, age INT);
		INSERT INTO people VALUES (1,'ann',34),(2,'bob',28),(3,'cid',45),(4,'dee',19);
		SELECT name FROM people WHERE age > 20 ORDER BY age`)
	if len(page.Rows) != 3 || page.Rows[0][0] != "bob" {
		t.Fatalf("script rows = %v", page.Rows)
	}

	// Prepared statements round trip.
	if code := doJSON(t, "POST", base+"/api/cql/session/demo/prepare",
		CQLExecuteDTO{Name: "adults", Src: `SELECT name FROM people WHERE age >= 28 ORDER BY name`},
		nil); code != http.StatusOK {
		t.Fatalf("prepare: status %d", code)
	}
	var prep cql.QueryPage
	if code := doJSON(t, "POST", base+"/api/cql/session/demo/execute",
		CQLExecuteDTO{Prepared: "adults"}, &prep); code != http.StatusOK {
		t.Fatalf("execute prepared: status %d", code)
	}
	deadline := time.Now().Add(5 * time.Second)
	for prep.Status == cql.QueryRunning && time.Now().Before(deadline) {
		prep = cqlPoll(t, base, "demo", prep.Query, "", 0)
	}
	if prep.Status != cql.QueryDone || len(prep.Rows) != 3 {
		t.Fatalf("prepared result = %+v", prep)
	}

	// Cursor pagination through the handle.
	q := cqlExecuteDone(t, base, "demo", `SELECT id FROM people ORDER BY id`)
	first := cqlPoll(t, base, "demo", q.Query, "", 3)
	if len(first.Rows) != 3 || first.NextPageToken == "" {
		t.Fatalf("first page = %+v", first)
	}
	rest := cqlPoll(t, base, "demo", q.Query, first.NextPageToken, 3)
	if len(rest.Rows) != 1 || rest.Rows[0][0] != "4" || rest.NextPageToken != "" {
		t.Fatalf("last page = %+v", rest)
	}

	// Errors surface on the handle, not as transport failures.
	bad := cqlExecute(t, base, "demo", `SELECT nope FROM people`)
	for bad.Status == cql.QueryRunning {
		bad = cqlPoll(t, base, "demo", bad.Query, "", 0)
	}
	if bad.Status != cql.QueryError || bad.Error == "" {
		t.Fatalf("bad query page = %+v", bad)
	}

	// Unknowns are 404s.
	if code := doJSON(t, "GET", base+"/api/cql/session/demo/query/q999", nil, nil); code != http.StatusNotFound {
		t.Fatalf("unknown query: status %d", code)
	}
	if code := doJSON(t, "POST", base+"/api/cql/session/ghost/execute",
		CQLExecuteDTO{Src: "SELECT 1"}, nil); code != http.StatusNotFound {
		t.Fatalf("unknown session: status %d", code)
	}

	if code := doJSON(t, "DELETE", base+"/api/cql/session/demo", nil, nil); code != http.StatusOK {
		t.Fatalf("close session: status %d", code)
	}
	if code := doJSON(t, "DELETE", base+"/api/cql/session/demo", nil, nil); code != http.StatusNotFound {
		t.Fatalf("double close: status %d", code)
	}
}

// answerRound lets each worker answer at most one open pool task with
// option. Returns how many answers were recorded.
func answerRound(t *testing.T, client *Client, workers []string, option int) int {
	t.Helper()
	n := 0
	for _, w := range workers {
		dto, ok, err := client.FetchTask(w)
		if err != nil || !ok {
			continue
		}
		if err := client.SubmitAnswer(AnswerDTO{Task: dto.ID, Worker: w, Option: option}); err == nil {
			n++
		}
	}
	return n
}

// TestCQLCrowdQueryPartialPagesAndCursor pins the tentpole behavior: a
// crowd query's questions are served by pool workers through the normal
// /api/task + /api/answer endpoints, the handle exposes partial rows
// while later questions are still unanswered, and a cursor obtained from
// a partial page stays valid after the query completes.
func TestCQLCrowdQueryPartialPagesAndCursor(t *testing.T) {
	ts, srv := newCQLTestServer(t, nil, CQLConfig{Redundancy: 2})
	base := ts.URL
	client := NewClient(ts.URL)
	workers := []string{"w1", "w2"}

	cqlCreate(t, base, "crowd")
	cqlExecuteDone(t, base, "crowd", `
		CREATE TABLE pets (id INT, kind STRING);
		INSERT INTO pets VALUES (1,'beagle'),(2,'poodle'),(3,'husky')`)

	page := cqlExecute(t, base, "crowd",
		`SELECT * FROM pets WHERE CROWDFILTER('is it a dog?', kind)`)
	if page.Status != cql.QueryRunning {
		t.Fatalf("crowd query resolved with no workers: %+v", page)
	}
	qid := page.Query
	// The stage's whole frontier is open before any answer arrives.
	waitStats(t, client, "round published", func(st *StatsDTO) bool {
		return st.OpenTasks == 3 && st.TotalAnswers == 0
	})

	// Complete the first row's question: its row streams onto the handle
	// while the other two questions are still open.
	first := openQuestions(t, srv, 3)["beagle"]
	for _, w := range workers {
		if err := client.SubmitAnswer(AnswerDTO{Task: first, Worker: w, Option: 1}); err != nil {
			t.Fatal(err)
		}
	}
	var midToken string
	var midRows int
	deadline := time.Now().Add(10 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatalf("crowd query never finished (page %+v)", page)
		}
		page = cqlPoll(t, base, "crowd", qid, "", 0)
		if page.Status != cql.QueryRunning {
			break
		}
		if !page.Partial || len(page.Rows) == 0 {
			time.Sleep(time.Millisecond)
			continue
		}
		if midToken == "" {
			midToken, midRows = page.NextPageToken, len(page.Rows)
			if midToken == "" {
				t.Fatalf("partial page with no cursor: %+v", page)
			}
		}
		// Then let each worker answer one open question per pass through
		// the normal task endpoint until the round is done.
		answerRound(t, client, workers, 1) // both vote "yes"
		time.Sleep(time.Millisecond)
	}
	if page.Status != cql.QueryDone {
		t.Fatalf("crowd query: status %s error %q", page.Status, page.Error)
	}
	if midToken == "" {
		t.Fatal("never observed a partial page with rows")
	}

	final := cqlPoll(t, base, "crowd", qid, "", 0)
	if len(final.Rows) != 3 || final.Partial {
		t.Fatalf("final page = %+v", final)
	}
	// The mid-flight cursor resumes exactly after the rows already seen.
	rest := cqlPoll(t, base, "crowd", qid, midToken, 0)
	if len(rest.Rows) != 3-midRows || rest.NextPageToken != "" {
		t.Fatalf("cursor after completion: had %d rows, got %+v", midRows, rest)
	}

	// All three questions were paid for at redundancy 2.
	stats, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.TotalAnswers != 6 || stats.BudgetSpent != 6 {
		t.Fatalf("answers=%d spent=%v, want 6/6", stats.TotalAnswers, stats.BudgetSpent)
	}
	if stats.OpenTasks != 0 || stats.ActiveLeases != 0 {
		t.Fatalf("pool not drained: %+v", stats)
	}
	waitersDrained(t, srv)
}

// waitStats polls /api/stats until check passes.
func waitStats(t *testing.T, client *Client, what string, check func(*StatsDTO) bool) *StatsDTO {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		st, err := client.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if check(st) {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s (stats %+v)", what, st)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// cqlCancel cancels a query over HTTP and returns its final status.
func cqlCancel(t *testing.T, base, session, qid string) cql.QueryStatus {
	t.Helper()
	var out struct {
		Status cql.QueryStatus `json:"status"`
	}
	if code := doJSON(t, "POST",
		base+"/api/cql/session/"+session+"/query/"+qid+"/cancel", nil, &out); code != http.StatusOK {
		t.Fatalf("cancel %s: status %d", qid, code)
	}
	return out.Status
}

// TestCQLCancelReleasesLeasesAndRefundsBudget pins the cancellation
// contract of the query service:
//
//   - scenario A: cancel while workers hold leases and no answer has
//     arrived — the round's leases are released, the whole budget
//     reservation is refunded, and the pool's stats match a control
//     server that never started the query;
//   - scenario B: cancel after exactly one answer — the net spend is
//     exactly that one answer.
func TestCQLCancelReleasesLeasesAndRefundsBudget(t *testing.T) {
	const seedSQL = `
		CREATE TABLE pets (id INT, kind STRING);
		INSERT INTO pets VALUES (1,'beagle'),(2,'poodle'),(3,'husky')`
	crowdSQL := `SELECT * FROM pets WHERE CROWDFILTER('is it a dog?', kind)`

	mk := func() (string, *Client) {
		ts, _ := newCQLTestServer(t, core.NewBudget(50), CQLConfig{Redundancy: 3},
			WithLeaseTTL(time.Minute))
		cqlCreate(t, ts.URL, "s")
		cqlExecuteDone(t, ts.URL, "s", seedSQL)
		return ts.URL, NewClient(ts.URL)
	}
	base, client := mk()
	controlBase, control := mk()

	// --- scenario A: leases held, zero answers ---
	page := cqlExecute(t, base, "s", crowdSQL)
	if page.Status != cql.QueryRunning {
		t.Fatalf("crowd query resolved with no workers: %+v", page)
	}
	waitStats(t, client, "round published", func(st *StatsDTO) bool { return st.OpenTasks == 3 })
	for _, w := range []string{"w1", "w2"} {
		if _, ok, err := client.FetchTask(w); err != nil || !ok {
			t.Fatalf("worker %s got no assignment: %v", w, err)
		}
	}
	waitStats(t, client, "leases issued", func(st *StatsDTO) bool { return st.ActiveLeases == 2 })

	if st := cqlCancel(t, base, "s", page.Query); st != cql.QueryCanceled {
		t.Fatalf("cancel status = %s", st)
	}
	got, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	want, err := control.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if got.ActiveLeases != 0 {
		t.Fatalf("leases not released: %d", got.ActiveLeases)
	}
	if got.BudgetSpent != 0 {
		t.Fatalf("budget not refunded: spent %v", got.BudgetSpent)
	}
	if got.OpenTasks != want.OpenTasks || got.TotalAnswers != want.TotalAnswers ||
		got.ActiveLeases != want.ActiveLeases || got.BudgetSpent != want.BudgetSpent {
		t.Fatalf("canceled stats %+v diverge from never-started control %+v", got, want)
	}

	// --- scenario B: one answer arrives, then cancel ---
	base2, client2 := controlBase, control // reuse the control server as the target
	page2 := cqlExecute(t, base2, "s", crowdSQL)
	if page2.Status != cql.QueryRunning {
		t.Fatalf("crowd query resolved with no workers: %+v", page2)
	}
	waitStats(t, client2, "round published", func(st *StatsDTO) bool { return st.OpenTasks == 3 })
	dto, ok, err := client2.FetchTask("w1")
	if err != nil || !ok {
		t.Fatalf("FetchTask: %v", err)
	}
	if err := client2.SubmitAnswer(AnswerDTO{Task: dto.ID, Worker: "w1", Option: 1}); err != nil {
		t.Fatal(err)
	}
	if st := cqlCancel(t, base2, "s", page2.Query); st != cql.QueryCanceled {
		t.Fatalf("cancel status = %s", st)
	}
	st, err := client2.Stats()
	if err != nil {
		t.Fatal(err)
	}
	// The reservation protocol charges k up front and refunds as answers
	// arrive plus the unconsumed remainder at cancel: net spend is exactly
	// the one recorded answer, regardless of how the refunds interleaved.
	if st.BudgetSpent != 1 || st.TotalAnswers != 1 {
		t.Fatalf("spent=%v answers=%d, want exactly 1/1", st.BudgetSpent, st.TotalAnswers)
	}
	if st.ActiveLeases != 0 || st.OpenTasks != 0 {
		t.Fatalf("pool not quiesced after cancel: %+v", st)
	}

	// The session survives cancellation: machine queries still run.
	after := cqlExecuteDone(t, base2, "s", `SELECT id FROM pets ORDER BY id`)
	if len(after.Rows) != 3 {
		t.Fatalf("session dead after cancel: %+v", after)
	}
}

// TestCQLCatalogPersistsAcrossSessionsAndRestart pins -cql-dir behavior:
// closing a session (explicitly or via server shutdown) saves its
// catalog, and recreating the session — on this server or a new one over
// the same directory — reloads it.
func TestCQLCatalogPersistsAcrossSessionsAndRestart(t *testing.T) {
	dir := t.TempDir()
	ts, srv := newCQLTestServer(t, nil, CQLConfig{Dir: dir})
	base := ts.URL

	cqlCreate(t, base, "keep")
	cqlExecuteDone(t, base, "keep", `
		CREATE TABLE Hotels (id INT, City STRING);
		INSERT INTO Hotels VALUES (1,'Paris'),(2,'Tokyo')`)
	if code := doJSON(t, "DELETE", base+"/api/cql/session/keep", nil, nil); code != http.StatusOK {
		t.Fatalf("close session: status %d", code)
	}

	// Same server, recreated session: catalog reloaded, exact table name
	// preserved.
	cqlCreate(t, base, "keep")
	page := cqlExecuteDone(t, base, "keep", `SHOW TABLES`)
	if len(page.Rows) != 1 || page.Rows[0][0] != "Hotels" {
		t.Fatalf("reloaded tables = %v", page.Rows)
	}
	page = cqlExecuteDone(t, base, "keep", `SELECT City FROM hotels ORDER BY id`)
	if len(page.Rows) != 2 || page.Rows[0][0] != "Paris" {
		t.Fatalf("reloaded rows = %v", page.Rows)
	}

	// Server shutdown persists every open session; a fresh server over
	// the same directory sees the data.
	ts.Close()
	srv.Close()
	ts2, _ := newCQLTestServer(t, nil, CQLConfig{Dir: dir})
	cqlCreate(t, ts2.URL, "keep")
	page = cqlExecuteDone(t, ts2.URL, "keep", `SELECT COUNT(*) FROM hotels`)
	if len(page.Rows) != 1 || page.Rows[0][0] != "2" {
		t.Fatalf("post-restart rows = %v", page.Rows)
	}
}
