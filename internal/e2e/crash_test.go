package e2e

import (
	"bytes"
	"fmt"
	"net/http"
	"regexp"
	"strconv"
	"testing"

	"repro/internal/core"
	"repro/internal/server"
)

// recovered matches the boot line of a restart on a data directory.
var recovered = regexp.MustCompile(`recovered (\d+) tasks, (\d+) answers \(spent (\d+)\)`)

// TestSigkillLosesNoAckedAnswer answers over HTTP with fsync on, kills
// the process with SIGKILL, and restarts it on the same directory: every
// acked answer comes back, the whole of /api/stats reads as it did
// before the kill, and the results body is byte-identical.
func TestSigkillLosesNoAckedAnswer(t *testing.T) {
	args := []string{"-tasks", "10", "-data-dir", t.TempDir(), "-fsync", "always"}
	p := start(t, args...)
	acked := 0
	for task := 1; task <= 5; task++ {
		for _, w := range []string{"a", "b", "c"} {
			// A 200 is the ack: the answer is on disk.
			p.post(t, "/api/answer", server.AnswerDTO{Task: core.TaskID(task), Worker: w, Option: 1}, nil)
			acked++
		}
	}
	var before server.StatsDTO
	p.get(t, "/api/stats", &before)
	if before.TotalAnswers != acked || before.BudgetSpent != int64(acked) {
		t.Fatalf("before the kill: %+v, want %d answers and %d spent", before, acked, acked)
	}
	code, _, results := p.call(t, http.MethodGet, "/api/results?method=mv", nil)
	if code != http.StatusOK {
		t.Fatalf("GET /api/results?method=mv: status %d: %s", code, results)
	}
	p.kill()

	r := start(t, args...)
	m := recovered.FindStringSubmatch(r.log())
	if m == nil {
		t.Fatalf("the restart logged no recovery:\n%s", r.log())
	}
	if got, want := m[1:], []string{"10", strconv.Itoa(acked), strconv.Itoa(acked)}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("boot log recovered tasks, answers, spent = %v, want %v", got, want)
	}
	var after server.StatsDTO
	r.get(t, "/api/stats", &after)
	if after != before {
		t.Errorf("/api/stats after the restart = %+v, before the kill = %+v", after, before)
	}
	code, _, again := r.call(t, http.MethodGet, "/api/results?method=mv", nil)
	if code != http.StatusOK || !bytes.Equal(again, results) {
		t.Errorf("/api/results?method=mv after the restart (status %d):\n%s\nbefore the kill:\n%s", code, again, results)
	}
}
