package durable

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"syscall"
	"testing"
	"time"

	"repro/internal/core"
)

// BenchmarkAnswerDurable measures the cost of journaling one accepted
// answer under each fsync policy — the per-ack durability tax the serving
// layer pays on top of the in-memory Record. "off" is the upper bound on
// validate + WAL framing + apply cost; "always" adds an fsync per answer;
// "interval" amortizes the fsyncs onto a background flusher. Every
// answer goes to one Collection task; the worker changes every
// core.MaxRepeatAnswers answers, so none hits the resubmission cap.
func BenchmarkAnswerDurable(b *testing.B) {
	policies := []struct {
		name string
		opts Options
	}{
		{"off", Options{Fsync: FsyncNever}},
		{"interval-100ms", Options{Fsync: FsyncInterval, FsyncEvery: 100 * time.Millisecond}},
		{"always", Options{Fsync: FsyncAlways}},
	}
	for _, p := range policies {
		b.Run(p.name, func(b *testing.B) {
			s, _, err := Open(b.TempDir(), p.opts)
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			mustAdd(b, s, &core.Task{ID: 0, Kind: core.Collection, Question: "q"})
			workers := make([]string, b.N/core.MaxRepeatAnswers+1)
			for i := range workers {
				workers[i] = fmt.Sprintf("w%d", i)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a := core.Answer{Task: 0, Worker: workers[i/core.MaxRepeatAnswers], Text: fmt.Sprintf("item-%d", i)}
				if err := answer(s, a, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// writeRecoveryDir journals the recovery_boot benchmark's directory shape
// — every task, then the answers round-robin over them in batches — and
// leaves it as a killed process would (snapshot=false: all in the WAL) or
// as a graceful shutdown would (snapshot=true: all in pool.snap).
func writeRecoveryDir(tb testing.TB, dir string, opts Options, tasks, answers, batch int, snapshot bool) {
	tb.Helper()
	s, _, err := Open(dir, opts)
	if err != nil {
		tb.Fatal(err)
	}
	for i := 1; i <= tasks; i++ {
		mustAdd(tb, s, &core.Task{
			ID: core.TaskID(i), Kind: core.SingleChoice,
			Question: fmt.Sprintf("Demo question %d: yes or no?", i), Options: []string{"no", "yes"},
		})
	}
	journalAnswers(tb, s, tasks, 0, answers, batch)
	if snapshot {
		err = s.Close()
	} else {
		s.Crash()
		err = nil
	}
	if err != nil {
		tb.Fatal(err)
	}
}

// journalAnswers journals answers [from, to) of writeRecoveryDir's
// sequence in batches: answer k goes to task k%tasks+1 from worker
// w<k/tasks>, so each worker answers each task at most once.
func journalAnswers(tb testing.TB, s *Store, tasks, from, to, batch int) {
	tb.Helper()
	for ; from < to; from += batch {
		as := make([]core.Answer, min(batch, to-from))
		for j := range as {
			k := from + j
			as[j] = core.Answer{Task: core.TaskID(k%tasks + 1), Worker: fmt.Sprintf("w%d", k/tasks), Option: k % 2}
		}
		if err := answerBatch(s, as, nil); err != nil {
			tb.Fatal(err)
		}
	}
}

// BenchmarkOpen measures recovery — Open on a written directory — on the
// recovery_boot shape (5,000 tasks, 100,000 answers in batches of 10),
// from the WAL and from a snapshot, under 1, 2 and 4 segments. The
// directory is written once outside the timer; Crash between iterations
// closes the files and leaves it untouched. Each timed Open runs in the
// benchmark's own process, after the last store's garbage was collected
// outside the timer: a warm heap, whose freed spans Open reuses, unlike a
// booting process's. gcs/op counts the collections that ran inside it,
// and any fails the benchmark (Open holds the collector).
//
// BenchmarkOpen/cold/{wal,snapshot} measures what a booting process pays
// on the same shape under 2 segments: each iteration runs one Open in a
// fresh process, the test binary run again (see TestMain). It reports the
// child's Open time (ms/op) and phases, what Open allocated (objects/op,
// B-heap/op) and the child process's minor page faults (minflt/op, from
// its rusage, process start included); ns/op is the whole child run.
func BenchmarkOpen(b *testing.B) {
	for _, source := range []string{"wal", "snapshot"} {
		for _, segments := range []int{1, 2, 4} {
			b.Run(fmt.Sprintf("%s/segments=%d", source, segments), func(b *testing.B) {
				dir := b.TempDir()
				opts := Options{Fsync: FsyncNever, Segments: segments}
				writeRecoveryDir(b, dir, opts, 5000, 100000, 10, source == "snapshot")
				var ms runtime.MemStats
				gcs := uint32(0)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					runtime.GC()
					runtime.ReadMemStats(&ms)
					gcs -= ms.NumGC
					b.StartTimer()
					s, info, err := Open(dir, opts)
					b.StopTimer()
					runtime.ReadMemStats(&ms)
					gcs += ms.NumGC
					if err != nil {
						b.Fatal(err)
					}
					if info.Tasks != 5000 || info.Answers != 100000 || info.SnapshotLoaded != (source == "snapshot") {
						b.Fatalf("recovered %+v", info)
					}
					s.Crash()
					b.StartTimer()
				}
				b.ReportMetric(float64(gcs)/float64(b.N), "gcs/op")
				if gcs != 0 {
					b.Fatalf("%d collections ran inside %d timed Opens", gcs, b.N)
				}
			})
		}
	}
	for _, source := range []string{"wal", "snapshot"} {
		b.Run("cold/"+source, func(b *testing.B) {
			dir := b.TempDir()
			writeRecoveryDir(b, dir, Options{Fsync: FsyncNever, Segments: 2}, 5000, 100000, 10, source == "snapshot")
			var sum coldOpen
			var minflt int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				got, ru := runColdOpen(b, dir)
				if got.Tasks != 5000 || got.Answers != 100000 || got.Snapshot != (source == "snapshot") {
					b.Fatalf("a fresh process recovered %+v", got)
				}
				sum.add(got)
				minflt += ru.Minflt
			}
			n := float64(b.N)
			ms := func(d time.Duration) float64 { return float64(d) / 1e6 / n }
			b.ReportMetric(ms(sum.Open), "ms/op")
			b.ReportMetric(ms(sum.SnapshotLoad), "snapshot-ms/op")
			b.ReportMetric(ms(sum.Decode), "decode-ms/op")
			b.ReportMetric(ms(sum.Merge), "merge-ms/op")
			b.ReportMetric(ms(sum.Apply), "apply-ms/op")
			b.ReportMetric(float64(sum.Objects)/n, "objects/op")
			b.ReportMetric(float64(sum.Bytes)/n, "B-heap/op")
			b.ReportMetric(float64(minflt)/n, "minflt/op")
		})
	}
}

// coldOpen is what a fresh process reports of its one Open.
type coldOpen struct {
	Open, SnapshotLoad, Decode, Merge, Apply time.Duration
	Objects, Bytes                           uint64 // allocated by Open
	Tasks, Answers                           int
	Snapshot                                 bool
}

func (c *coldOpen) add(o coldOpen) {
	c.Open += o.Open
	c.SnapshotLoad += o.SnapshotLoad
	c.Decode += o.Decode
	c.Merge += o.Merge
	c.Apply += o.Apply
	c.Objects += o.Objects
	c.Bytes += o.Bytes
}

// coldOpenArg is the argument that makes the test binary a cold-open
// child (TestMain): it opens the directory named after it, prints a
// coldOpen as JSON and exits.
const coldOpenArg = "cold-open"

// runColdOpen runs one Open of dir under 2 segments in a fresh process
// with the benchmark's GOMAXPROCS, and returns its report and the child's
// resource usage.
func runColdOpen(b *testing.B, dir string) (coldOpen, *syscall.Rusage) {
	b.Helper()
	cmd := exec.Command(os.Args[0], coldOpenArg, dir)
	cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", runtime.GOMAXPROCS(0)))
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		b.Fatalf("cold open: %v\n%s", err, stderr.Bytes())
	}
	var got coldOpen
	if err := json.Unmarshal(out, &got); err != nil {
		b.Fatalf("cold open printed %q: %v", out, err)
	}
	return got, cmd.ProcessState.SysUsage().(*syscall.Rusage)
}

// coldOpenChild opens dir under 2 segments as a booting process would, as
// the first thing the process does, and prints what it measured.
func coldOpenChild(dir string) error {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	s, info, err := Open(dir, Options{Fsync: FsyncNever, Segments: 2})
	open := time.Since(start)
	runtime.ReadMemStats(&after)
	if err != nil {
		return err
	}
	s.Crash()
	return json.NewEncoder(os.Stdout).Encode(coldOpen{
		Open: open, SnapshotLoad: info.SnapshotLoad, Decode: info.Decode, Merge: info.Merge, Apply: info.Apply,
		Objects: after.Mallocs - before.Mallocs, Bytes: after.TotalAlloc - before.TotalAlloc,
		Tasks: info.Tasks, Answers: info.Answers, Snapshot: info.SnapshotLoaded,
	})
}

// TestMain runs the package's tests, or, given coldOpenArg and a
// directory, is the child of BenchmarkOpen/cold.
func TestMain(m *testing.M) {
	flag.Parse()
	if flag.NArg() == 2 && flag.Arg(0) == coldOpenArg {
		if err := coldOpenChild(flag.Arg(1)); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// BenchmarkSnapshotWrite measures Store.Snapshot on the same directory
// shape under 1, 2 and 4 segments: cutting the image, writing and syncing
// pool.snap and truncating the WAL, all of which runs inside the consistent
// cut that every writer waits behind. One record before each iteration —
// the close of a session that is not open, which changes no state — gives
// the snapshot something new to cover (it is a no-op otherwise).
func BenchmarkSnapshotWrite(b *testing.B) {
	for _, segments := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("segments=%d", segments), func(b *testing.B) {
			dir := b.TempDir()
			opts := Options{Fsync: FsyncNever, Segments: segments}
			writeRecoveryDir(b, dir, opts, 5000, 100000, 10, true)
			s, _, err := Open(dir, opts)
			if err != nil {
				b.Fatal(err)
			}
			defer s.Crash()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				if err := s.CQLSessionClosed("bench"); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if err := s.Snapshot(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
