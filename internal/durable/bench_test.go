package durable

import (
	"fmt"
	"runtime"
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
// closes the files and leaves it untouched. Each timed Open starts, as a
// booting process does, with no collection in flight and the last
// store's garbage collected, outside the timer; gcs/op counts the
// collections that ran inside it, and any fails the benchmark (Open holds
// the collector).
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
