package e2e

import (
	"bytes"
	"compress/gzip"
	"io"
	"net/http"
	"testing"

	"repro/internal/server"
)

// TestMetricsScrapeAndCPUProfile boots the binary with observability on,
// probes it, makes one assignment, scrapes the exposition, and pulls a
// 1 s CPU profile: the pprof and exposition endpoints are deployable, not
// just unit-tested.
func TestMetricsScrapeAndCPUProfile(t *testing.T) {
	p := start(t, "-tasks", "20", "-metrics", "-pprof")
	var health server.HealthDTO
	if p.get(t, "/healthz", &health); health != (server.HealthDTO{Status: "ok", Tasks: 20}) {
		t.Errorf("/healthz = %+v, want ok with 20 tasks", health)
	}
	var task server.TaskDTO
	p.get(t, "/api/task?worker=ci-smoke", &task)

	m := p.metrics(t)
	if got := m[`crowdkit_http_requests_total{code="2xx",endpoint="/api/task"}`]; got != 1 {
		t.Errorf("crowdkit_http_requests_total for the one 2xx /api/task = %v, want 1", got)
	}
	if got := m["crowdkit_pool_tasks"]; got != 20 {
		t.Errorf("crowdkit_pool_tasks = %v, want 20", got)
	}

	code, _, prof := p.call(t, http.MethodGet, "/debug/pprof/profile?seconds=1", nil)
	if code != http.StatusOK {
		t.Fatalf("GET /debug/pprof/profile: status %d: %s", code, prof)
	}
	// A profile is a gzipped protocol buffer.
	zr, err := gzip.NewReader(bytes.NewReader(prof))
	if err != nil {
		t.Fatalf("CPU profile (%d bytes) is not gzip: %v", len(prof), err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil || len(raw) == 0 {
		t.Fatalf("CPU profile holds %d bytes: %v", len(raw), err)
	}
}
