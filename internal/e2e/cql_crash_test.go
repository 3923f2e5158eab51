package e2e

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/cql"
	"repro/internal/server"
)

// TestCrowdQuerySurvivesSigkill kills the process while a crowd query
// holds one acked answer, and restarts it on the same directories. The
// session comes back by name, the orphaned handle polls as "recovered"
// instead of 404, its questions are closed with their leases dropped,
// the budget reconciles to exactly the acked answer, and the session's
// catalog still answers a machine query.
func TestCrowdQuerySurvivesSigkill(t *testing.T) {
	args := []string{"-tasks", "0", "-trace", "-data-dir", t.TempDir(), "-fsync", "always",
		"-cql-dir", t.TempDir(), "-lease", "1m"}
	p := start(t, args...)
	qid := crowdQuery(t, p, "smoke", "(1,'beagle'),(2,'tabby')")
	query := "/api/cql/session/smoke/query/" + qid
	q := task(t, p, "w1")
	// The 200 ack means the answer is fsynced.
	p.post(t, "/api/answer", server.AnswerDTO{Task: q.ID, Worker: "w1", Option: 1}, nil)
	var page cql.QueryPage
	p.get(t, query, &page)
	if page.Status != cql.QueryRunning {
		t.Fatalf("before the kill the query is %q, want it mid-flight", page.Status)
	}
	p.kill()

	r := start(t, args...)
	var list server.CQLSessionListDTO
	r.get(t, "/api/cql/sessions", &list)
	if !slices.Contains(list.Sessions, "smoke") {
		t.Errorf("sessions after the restart = %v, want smoke among them", list.Sessions)
	}
	r.get(t, query, &page)
	if page.Status != cql.QueryRecovered {
		t.Errorf("the orphaned query polls as %+v, want status %q", page, cql.QueryRecovered)
	}
	var st server.StatsDTO
	r.get(t, "/api/stats", &st)
	if st.BudgetSpent != 1 || st.OpenTasks != 0 || st.ActiveLeases != 0 {
		t.Errorf("stats after reconciliation = %+v, want budget_spent 1, open_tasks 0, active_leases 0", st)
	}
	var count cql.QueryPage
	r.post(t, "/api/cql/session/smoke/execute", server.CQLExecuteDTO{Src: "SELECT COUNT(*) FROM pets"}, &count)
	if count.Status != cql.QueryDone || !reflect.DeepEqual(count.Rows, [][]string{{"2"}}) {
		t.Errorf("SELECT COUNT(*) FROM pets after the restart = %+v, want done with the one row [2]", count)
	}
}
