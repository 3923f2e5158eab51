package main

import (
	"fmt"
	"regexp"
	"strconv"
	"time"
)

// recoveryBoot uses the durable layer the other way round: set-up writes
// a data directory (batch ingest with fsync off, then SIGKILL), and the
// measurement boots the binary on it again and again — first replaying
// the WAL, then, after one graceful SIGTERM has folded the log into a
// snapshot, loading the snapshot. A boot is timed from exec to the first
// 200 from /healthz.
type recoveryBoot struct {
	x   *runCtx
	dir string
}

func (w *recoveryBoot) flags(x *runCtx) []string {
	p := x.p.RecoveryBoot
	x.res.Flush = "off"
	return []string{"-tasks", strconv.Itoa(p.Tasks), "-shards", strconv.Itoa(p.Shards), "-fsync", "off"}
}

func (w *recoveryBoot) setup(x *runCtx) error {
	p := x.p.RecoveryBoot
	w.x = x
	srv, err := x.startServer("recovery_boot", w.flags(x))
	if err != nil {
		return err
	}
	w.dir = srv.dir
	preload(x, srv.cli, p.Tasks, 0, p.PreloadAnswers, p.PreloadBatch)
	srv.connectionChecks()
	srv.cli.close()
	srv.child.kill()
	return nil
}

func (w *recoveryBoot) teardown() {
	if w.dir != "" {
		w.x.env.removeDir(w.dir)
	}
}

// bootLine is the part of crowdserve's recovery log line that says where
// the state came from.
var bootLine = regexp.MustCompile(`recovered \d+ tasks, \d+ answers .* snapshot=(true|false) `)

// boot starts the binary on the written directory, times it to healthy,
// checks what it recovered, and leaves it running for the caller to end.
func (w *recoveryBoot) boot(kind string, wantSnapshot bool) (*server, float64, bool) {
	x, p := w.x, w.x.p.RecoveryBoot
	x.tally.attempt()
	srv := &server{x: x, dir: w.dir}
	took, err := srv.boot(w.flags(x))
	if err != nil {
		x.tally.fail("%s boot: %v", kind, err)
		return nil, 0, false
	}
	c := srv.child
	good := true
	if st, ok := srv.stats(); ok {
		good = x.tally.check(st.Tasks == p.Tasks && st.TotalAnswers == p.PreloadAnswers && int(st.BudgetSpent) == p.PreloadAnswers,
			"%s boot recovered %d tasks / %d answers / spent %v, want %d / %d / %d",
			kind, st.Tasks, st.TotalAnswers, st.BudgetSpent, p.Tasks, p.PreloadAnswers, p.PreloadAnswers)
		x.output(kind, st.Tasks, st.TotalAnswers, st.BudgetSpent)
	} else {
		good = false
	}
	m := bootLine.FindStringSubmatch(c.logHead())
	x.tally.check(m != nil && (m[1] == "true") == wantSnapshot, "%s boot did not log a recovery from snapshot=%v: %q", kind, wantSnapshot, clip([]byte(c.logHead())))
	return srv, ms(took), good
}

// endBoot kills a booted child but keeps the directory for the next boot.
func endBoot(srv *server) {
	srv.cli.close()
	srv.child.kill()
}

func (w *recoveryBoot) measure(x *runCtx) error {
	p := x.p.RecoveryBoot
	walBytes := dirBytes(w.dir, "wal*.log")
	x.metric("wal_bytes_per_answer", float64(walBytes)/float64(p.PreloadAnswers), "B")
	x.metric("durable.wal_bytes", float64(walBytes), "B")

	var walMS, snapMS []float64
	var cpuMS, rssMB, replayS, replayed []float64
	peakMB := 0.0
	for i := 0; i < p.WALBoots; i++ {
		srv, took, ok := w.boot("wal", false)
		if srv == nil {
			continue
		}
		if ok {
			walMS = append(walMS, took)
		}
		if ps, err := readProc(srv.child.pid()); err == nil {
			cpuMS, rssMB, peakMB = append(cpuMS, ps.cpuMS), append(rssMB, ps.rssMB), max(peakMB, ps.peakMB)
		}
		if x.traced {
			d := srv.scrape()
			replayS = append(replayS, d.sum("crowdkit_recovery_replay_seconds"))
			replayed = append(replayed, d.sum("crowdkit_recovery_replayed_records_total"))
		}
		endBoot(srv)
	}

	// One graceful shutdown: the snapshot is written and the WAL truncated.
	srv, _, _ := w.boot("wal", false)
	if srv == nil {
		return fmt.Errorf("no boot to shut down gracefully: %v", x.tally.first)
	}
	srv.cli.close()
	if err := srv.child.terminate(30 * time.Second); err != nil {
		return err
	}
	snapBytes := dirBytes(w.dir, "*.snap")
	x.tally.check(snapBytes > 0 && dirBytes(w.dir, "wal*.log") == 0, "graceful shutdown left snapshot %d B, WAL %d B", snapBytes, dirBytes(w.dir, "wal*.log"))
	x.metric("durable.snapshot_bytes", float64(snapBytes), "B")

	for i := 0; i < p.SnapshotBoots; i++ {
		srv, took, ok := w.boot("snapshot", true)
		if srv == nil {
			continue
		}
		if ok {
			snapMS = append(snapMS, took)
		}
		endBoot(srv)
	}

	sw := x.timing("boot_wal_ms", walMS)
	x.metric("op_p50_ms", sw.P50, "ms")
	x.metric("op_tail_ms", sw.Tail, "ms")
	x.metric("loadgen.op_p99_ms", sw.P99, "ms")
	ss := x.timing("boot_snapshot_ms", snapMS)
	x.metric("side_op_ms", ss.P50, "ms")
	// The child as the OS sees it once a WAL boot is healthy: the replay's
	// processor time and what stays resident after it.
	x.metric("process.cpu_ms_per_op", median(cpuMS), "ms")
	x.metric("process.rss_boot_mb", median(rssMB), "MB")
	x.metric("process.rss_peak_mb", peakMB, "MB")
	// Boots are closed-loop by nature: there is no schedule to be late for.
	x.metric("loadgen.lateness_p99_ms", 0, "ms")
	x.metric("loadgen.backlog_end", 0, "count")
	if x.traced && len(replayS) > 0 {
		x.metric("durable.replay_s", median(replayS), "s")
		if n := median(replayed); n > 0 {
			x.metric("durable.replay_us_per_record", 1e6*median(replayS)/n, "us")
		}
	}
	return nil
}
