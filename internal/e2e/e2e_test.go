// Package e2e checks the crowdserve binary from the outside: each test
// boots it as its own process on a loopback port, drives it over HTTP,
// and asserts on the decoded responses. Crash tests end the process with
// SIGKILL, as kill -9 would, and boot it again on the same directories.
//
// TestMain builds ./cmd/crowdserve once per test binary with the go
// command that runs the tests, so `go test ./...` runs these tests too.
package e2e

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cql"
	"repro/internal/server"
)

// bin is the crowdserve binary TestMain built.
var bin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "crowdkit-e2e-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	bin = filepath.Join(dir, "crowdserve")
	code := 1
	// go test puts its own GOROOT/bin first on the PATH of a test binary,
	// so "go" is the go command that runs the tests.
	if out, err := exec.Command("go", "build", "-o", bin, "repro/cmd/crowdserve").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "go build repro/cmd/crowdserve: %v\n%s", err, out)
	} else {
		code = m.Run()
	}
	os.RemoveAll(dir)
	os.Exit(code)
}

// bootTimeout bounds a boot, from exec to the line that names the
// listening address.
const bootTimeout = 30 * time.Second

// listening matches the line serve mode logs once its listener is bound;
// its group is the bound address.
var listening = regexp.MustCompile(`crowdserve: \d+ tasks on http://(\S+) `)

// proc is one crowdserve process.
type proc struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:port
	once sync.Once
	done chan struct{} // closed once stderr is drained

	mu     sync.Mutex
	stderr bytes.Buffer
}

// start boots crowdserve with args on a port the kernel picks, and
// returns once the boot log names the bound address. The process is
// killed when the test ends.
func start(t *testing.T, args ...string) *proc {
	t.Helper()
	p := &proc{
		cmd:  exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...),
		done: make(chan struct{}),
	}
	pipe, err := p.cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := p.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.kill)
	addr := make(chan string, 1)
	go func() {
		defer close(p.done)
		r := bufio.NewReader(pipe)
		for sent := false; ; {
			line, err := r.ReadString('\n')
			p.mu.Lock()
			p.stderr.WriteString(line)
			p.mu.Unlock()
			if m := listening.FindStringSubmatch(line); m != nil && !sent {
				addr <- m[1]
				sent = true
			}
			if err != nil {
				return
			}
		}
	}()
	select {
	case a := <-addr:
		p.base = "http://" + a
	case <-p.done:
		t.Fatalf("crowdserve %v exited during boot:\n%s", args, p.log())
	case <-time.After(bootTimeout):
		t.Fatalf("crowdserve %v logged no listening address in %v:\n%s", args, bootTimeout, p.log())
	}
	return p
}

// log is what the process has written to stderr so far.
func (p *proc) log() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stderr.String()
}

// kill ends the process with SIGKILL, as kill -9 does, and waits for it.
func (p *proc) kill() {
	p.once.Do(func() {
		// Kill fails only on a process that has already exited, and Wait
		// then reports the signal or that exit: neither is news here.
		_ = p.cmd.Process.Kill()
		<-p.done
		_ = p.cmd.Wait()
	})
}

var client = &http.Client{Timeout: 30 * time.Second}

// call sends method path to the process, with body JSON-encoded unless
// it is nil, and returns the status, the headers and the whole body.
func (p *proc) call(t *testing.T, method, path string, body any) (int, http.Header, []byte) {
	t.Helper()
	var r io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		r = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, p.base+path, r)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v\n%s", method, path, err, p.log())
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("%s %s: reading the body: %v", method, path, err)
	}
	return resp.StatusCode, resp.Header, out
}

// ok is call that fails the test on any status but 200 and decodes the
// body into v unless v is nil.
func (p *proc) ok(t *testing.T, method, path string, body, v any) http.Header {
	t.Helper()
	code, h, out := p.call(t, method, path, body)
	if code != http.StatusOK {
		t.Fatalf("%s %s: status %d: %s", method, path, code, out)
	}
	if v != nil {
		decode(t, out, v)
	}
	return h
}

func (p *proc) get(t *testing.T, path string, v any) {
	t.Helper()
	p.ok(t, http.MethodGet, path, nil, v)
}

func (p *proc) post(t *testing.T, path string, body, v any) http.Header {
	t.Helper()
	return p.ok(t, http.MethodPost, path, body, v)
}

// decode unmarshals a whole response body into v, refusing fields v does
// not have, so a decoded DTO is everything the server sent.
func decode(t *testing.T, body []byte, v any) {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		t.Fatalf("decoding %s into %T: %v", body, v, err)
	}
}

// metrics scrapes /metrics and returns each sample's value by its series,
// the name with its label set as exposed: `name{k="v",...}`.
func (p *proc) metrics(t *testing.T) map[string]float64 {
	t.Helper()
	code, _, body := p.call(t, http.MethodGet, "/metrics", nil)
	if code != http.StatusOK {
		t.Fatalf("GET /metrics: status %d: %s", code, body)
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if i < 0 || err != nil {
			t.Fatalf("/metrics: malformed sample %q", line)
		}
		out[line[:i]] = v
	}
	return out
}

// crowdQuery opens session, creates the table pets with rows (a VALUES
// list), and starts a crowd filter over it. It returns the running query's
// handle.
func crowdQuery(t *testing.T, p *proc, session, rows string) string {
	t.Helper()
	p.post(t, "/api/cql/session", server.CQLSessionDTO{Session: session}, nil)
	execute := "/api/cql/session/" + session + "/execute"
	p.post(t, execute, server.CQLExecuteDTO{Src: "CREATE TABLE pets (id INT, kind STRING); INSERT INTO pets VALUES " + rows}, nil)
	var page cql.QueryPage
	p.post(t, execute, server.CQLExecuteDTO{Src: "SELECT id FROM pets WHERE CROWDFILTER('is it a dog?', kind)"}, &page)
	if page.Query == "" || page.Status != cql.QueryRunning {
		t.Fatalf("crowd query page %+v, want a running handle", page)
	}
	return page.Query
}

// task asks for an assignment for worker until one is handed out.
func task(t *testing.T, p *proc, worker string) server.TaskDTO {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(100 * time.Millisecond) {
		code, _, body := p.call(t, http.MethodGet, "/api/task?worker="+worker, nil)
		if code == http.StatusOK {
			var task server.TaskDTO
			decode(t, body, &task)
			return task
		}
		if code != http.StatusNoContent {
			t.Fatalf("GET /api/task?worker=%s: status %d: %s", worker, code, body)
		}
	}
	t.Fatalf("no task for %s in 10s", worker)
	return server.TaskDTO{}
}
