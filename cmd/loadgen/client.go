package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// maxConns is the whole generator's connection budget: one per processor
// of the reference box.
const maxConns = 2

// tally counts what was attempted and what failed. A failure is a
// transport error, a 5xx, a status the protocol does not allow at that
// point, or a missed output check; the first few are kept as text.
type tally struct {
	attempted atomic.Int64
	failed    atomic.Int64

	mu    sync.Mutex
	first []string
}

func (t *tally) attempt() { t.attempted.Add(1) }

func (t *tally) fail(format string, args ...any) {
	t.failed.Add(1)
	t.mu.Lock()
	if len(t.first) < 10 {
		t.first = append(t.first, fmt.Sprintf(format, args...))
	}
	t.mu.Unlock()
}

// check counts one output check and records a miss.
func (t *tally) check(ok bool, format string, args ...any) bool {
	t.attempt()
	if !ok {
		t.fail(format, args...)
	}
	return ok
}

// client talks to one child over raw net/http. It never retries: a retry
// would hide exactly the failures the benchmark counts.
type client struct {
	base  string
	hc    *http.Client
	dials atomic.Int64 // connections opened to the child so far
	trace bool         // send X-Trace-Id (traced runs only)
	tally *tally
}

func newClient(base string, trace bool, t *tally) *client {
	c := &client{base: base, trace: trace, tally: t}
	dialer := &net.Dialer{Timeout: 5 * time.Second}
	c.hc = &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     maxConns,
			MaxIdleConnsPerHost: maxConns,
			IdleConnTimeout:     5 * time.Minute,
			DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
				c.dials.Add(1)
				return dialer.DialContext(ctx, network, addr)
			},
		},
	}
	return c
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// reply is one HTTP exchange as the client saw it.
type reply struct {
	status int
	body   []byte
	header http.Header
	dur    time.Duration
}

// do performs one request and counts it as attempted. A transport error
// or 5xx is counted as failed here; whether any other status is allowed
// is the caller's to say (see expect).
func (c *client) do(method, path string, body []byte, traceID string) (reply, bool) {
	c.tally.attempt()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		c.tally.fail("%s %s: %v", method, path, err)
		return reply{}, false
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if c.trace && traceID != "" {
		req.Header.Set("X-Trace-Id", traceID)
	}
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		c.tally.fail("%s %s: %v", method, path, err)
		return reply{}, false
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	r := reply{status: resp.StatusCode, body: data, header: resp.Header, dur: time.Since(start)}
	if err != nil {
		c.tally.fail("%s %s: reading body: %v", method, path, err)
		return r, false
	}
	if r.status >= 500 {
		c.tally.fail("%s %s: HTTP %d: %s", method, path, r.status, clip(data))
		return r, false
	}
	return r, true
}

// expect performs a request that must answer with want; anything else is
// a failure.
func (c *client) expect(want int, method, path string, body []byte, traceID string) (reply, bool) {
	r, ok := c.do(method, path, body, traceID)
	if ok && r.status != want {
		c.tally.fail("%s %s: HTTP %d, want %d: %s", method, path, r.status, want, clip(r.body))
		return r, false
	}
	return r, ok
}

// getJSON fetches path, which must answer 200, into v.
func (c *client) getJSON(path string, v any) bool {
	r, ok := c.expect(http.StatusOK, http.MethodGet, path, nil, "")
	if !ok {
		return false
	}
	if err := json.Unmarshal(r.body, v); err != nil {
		c.tally.fail("GET %s: %v", path, err)
		return false
	}
	return true
}

func clip(b []byte) string {
	if len(b) > 200 {
		b = b[:200]
	}
	return string(bytes.TrimSpace(b))
}

// statsDTO is GET /api/stats.
type statsDTO struct {
	Tasks        int     `json:"tasks"`
	OpenTasks    int     `json:"open_tasks"`
	TotalAnswers int     `json:"total_answers"`
	BudgetSpent  float64 `json:"budget_spent"`
	ActiveLeases int     `json:"active_leases"`
}

// waitHealthy polls /healthz until it answers 200 and returns how long
// after the child's start that was. Refused connections while the child
// boots are the expected outcome of a poll, not failures.
func waitHealthy(c *child, every, timeout time.Duration) (time.Duration, error) {
	hc := &http.Client{Timeout: time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	for time.Since(c.started) < timeout {
		resp, err := hc.Get(c.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body) // only the status matters
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return time.Since(c.started), nil
			}
		}
		if c.exited() {
			return 0, fmt.Errorf("child exited during boot: %v\n%s", c.waitErr, c.logHead())
		}
		time.Sleep(every)
	}
	return 0, fmt.Errorf("child not healthy after %v\n%s", timeout, c.logHead())
}
