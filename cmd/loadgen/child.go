package main

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// procs is how many processors each of the two processes may use: the
// reference box has 2, and a comparison across boxes needs it pinned.
func procs() int { return min(2, runtime.NumCPU()) }

// env is what one benchmark process works in: the repository it builds
// from and the directory (inside the checkout) every byte it writes goes
// to.
type env struct {
	root   string // repository root (holds cmd/crowdserve)
	work   string // <root>/.bench_build
	bin    string // built crowdserve
	buildS float64

	mu       sync.Mutex
	children map[*child]bool
	dirs     map[string]bool
	nextPort int
}

// newEnv locates the repository and builds the program under test from
// source. The build is timed on its own and kept out of every set-up time.
func newEnv(root string) (*env, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	if _, err := os.Stat(filepath.Join(root, "cmd", "crowdserve", "main.go")); err != nil {
		return nil, fmt.Errorf("no crowdserve source under %s: %w", root, err)
	}
	e := &env{
		root: root, work: filepath.Join(root, ".bench_build"),
		children: map[*child]bool{}, dirs: map[string]bool{},
	}
	if err := os.MkdirAll(filepath.Join(e.work, "bin"), 0o755); err != nil {
		return nil, err
	}
	// Build under a private name and rename, so a concurrent run never
	// executes a half-written binary.
	e.bin = filepath.Join(e.work, "bin", "crowdserve")
	tmp := fmt.Sprintf("%s.%d", e.bin, os.Getpid())
	start := time.Now()
	cmd := exec.Command("go", "build", "-o", tmp, "./cmd/crowdserve")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("go build ./cmd/crowdserve: %v\n%s", err, out)
	}
	e.buildS = time.Since(start).Seconds()
	if err := os.Rename(tmp, e.bin); err != nil {
		return nil, err
	}
	return e, nil
}

// tempDir makes a fresh data directory that cleanup will remove.
func (e *env) tempDir(name string) (string, error) {
	dir, err := os.MkdirTemp(e.work, name+"-")
	if err != nil {
		return "", err
	}
	e.mu.Lock()
	e.dirs[dir] = true
	e.mu.Unlock()
	return dir, nil
}

func (e *env) removeDir(dir string) {
	e.mu.Lock()
	delete(e.dirs, dir)
	e.mu.Unlock()
	_ = os.RemoveAll(dir) // scratch under .bench_build; a leftover costs disk only
}

// cleanup kills every live child and removes every data directory. It is
// safe to call more than once and from a signal handler goroutine.
func (e *env) cleanup() {
	e.mu.Lock()
	children := make([]*child, 0, len(e.children))
	for c := range e.children {
		children = append(children, c)
	}
	dirs := make([]string, 0, len(e.dirs))
	for d := range e.dirs {
		dirs = append(dirs, d)
	}
	e.mu.Unlock()
	for _, c := range children {
		c.kill()
	}
	for _, d := range dirs {
		e.removeDir(d)
	}
}

// child is one crowdserve process.
type child struct {
	env     *env
	cmd     *exec.Cmd
	args    []string
	base    string // http://127.0.0.1:port
	logPath string // the child's stderr, a file so that no generator goroutine copies it
	started time.Time
	waited  chan struct{}
	waitErr error
}

// traceFlags are the shipped observability switches a traced run turns on.
var traceFlags = []string{"-trace", "-trace-sample", "1", "-trace-buffer", "65536", "-metrics"}

// freeAddr picks the next child's loopback address from below the
// kernel's ephemeral port range. The generator polls the address before
// the child has bound it, and a connect to an unbound local port inside
// that range may be handed the very same port as its source: it then
// connects to itself, and the child can no longer bind. Over the
// thousands of boots of a benchmark session that happens.
func (e *env) freeAddr() (string, error) {
	low := 32768
	if data, err := os.ReadFile("/proc/sys/net/ipv4/ip_local_port_range"); err == nil {
		if f := strings.Fields(string(data)); len(f) == 2 {
			if v, err := strconv.Atoi(f[0]); err == nil {
				low = v
			}
		}
	}
	const span = 10000
	if low < span+2048 {
		return "", fmt.Errorf("no room below the ephemeral port range, which starts at %d", low)
	}
	for try := 0; try < span; try++ {
		e.mu.Lock()
		e.nextPort++
		port := low - 1 - (os.Getpid()*64+e.nextPort)%span
		e.mu.Unlock()
		ln, err := net.Listen("tcp", "127.0.0.1:"+strconv.Itoa(port))
		if err != nil {
			continue // taken by someone else
		}
		if err := ln.Close(); err != nil {
			return "", err
		}
		return "127.0.0.1:" + strconv.Itoa(port), nil
	}
	return "", errors.New("no free loopback port below the ephemeral range")
}

// start execs crowdserve on a free loopback port.
func (e *env) start(args []string, traced bool) (*child, error) {
	addr, err := e.freeAddr()
	if err != nil {
		return nil, err
	}
	full := append([]string{"-addr", addr}, args...)
	if traced {
		full = append(full, traceFlags...)
	}
	logFile, err := os.CreateTemp(e.work, "child-*.log")
	if err != nil {
		return nil, err
	}
	defer logFile.Close() // the child holds its own descriptor
	e.mu.Lock()
	e.dirs[logFile.Name()] = true
	e.mu.Unlock()
	c := &child{
		env: e, args: full, base: "http://" + addr,
		logPath: logFile.Name(), waited: make(chan struct{}),
	}
	c.cmd = exec.Command(e.bin, full...)
	c.cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(procs()))
	c.cmd.Stderr = logFile
	// If the generator dies without running cleanup, the kernel kills the
	// child with it.
	c.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	c.started = time.Now()
	if err := c.cmd.Start(); err != nil {
		return nil, err
	}
	e.mu.Lock()
	e.children[c] = true
	e.mu.Unlock()
	go func() {
		c.waitErr = c.cmd.Wait()
		close(c.waited)
	}()
	return c, nil
}

// logHead returns the start of the child's stderr (the boot lines).
func (c *child) logHead() string {
	f, err := os.Open(c.logPath)
	if err != nil {
		return ""
	}
	defer f.Close()
	buf := make([]byte, 4096)
	n, _ := f.Read(buf) // a short or empty log is a valid answer
	return string(buf[:n])
}

func (c *child) pid() int { return c.cmd.Process.Pid }

// commandLine is the exact child command, for the report.
func (c *child) commandLine() string {
	return "GOMAXPROCS=" + strconv.Itoa(procs()) + " crowdserve " + strings.Join(c.args, " ")
}

// kill sends SIGKILL and waits for the process to be gone.
func (c *child) kill() {
	_ = c.cmd.Process.Signal(syscall.SIGKILL) // already exited is fine
	<-c.waited
	c.forget()
}

// terminate sends SIGTERM (graceful close: snapshot, truncate the WAL)
// and waits for the exit.
func (c *child) terminate(timeout time.Duration) error {
	if err := c.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case <-c.waited:
		c.forget()
		return nil
	case <-time.After(timeout):
		c.kill()
		return errors.New("child ignored SIGTERM")
	}
}

func (c *child) forget() {
	c.env.mu.Lock()
	delete(c.env.children, c)
	c.env.mu.Unlock()
	c.env.removeDir(c.logPath)
}

// exited reports whether the child has already ended (a crash).
func (c *child) exited() bool {
	select {
	case <-c.waited:
		return true
	default:
		return false
	}
}

// procSample is the child as the operating system sees it.
type procSample struct {
	cpuMS  float64 // user + system time so far
	rssMB  float64 // resident now (VmRSS)
	peakMB float64 // resident high-water mark (VmHWM)
}

func readProc(pid int) (procSample, error) {
	var s procSample
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return s, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// the 14th and 15th of the whole line, in clock ticks (100/s on Linux).
	rest := stat[bytes.LastIndexByte(stat, ')')+1:]
	f := strings.Fields(string(rest))
	if len(f) < 13 {
		return s, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, _ := strconv.ParseFloat(f[11], 64)
	st, _ := strconv.ParseFloat(f[12], 64)
	s.cpuMS = (ut + st) * 10
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return s, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		switch {
		case strings.HasPrefix(line, "VmRSS:"):
			s.rssMB = kbField(line) / 1024
		case strings.HasPrefix(line, "VmHWM:"):
			s.peakMB = kbField(line) / 1024
		}
	}
	return s, nil
}

func kbField(line string) float64 {
	f := strings.Fields(line)
	if len(f) < 2 {
		return 0
	}
	v, _ := strconv.ParseFloat(f[1], 64)
	return v
}

// dirBytes sums the sizes of the files in dir whose names match the glob.
func dirBytes(dir, glob string) int64 {
	names, _ := filepath.Glob(filepath.Join(dir, glob)) // the pattern is a constant
	var n int64
	for _, name := range names {
		if fi, err := os.Stat(name); err == nil {
			n += fi.Size()
		}
	}
	return n
}
