// Command crowdserve runs the HTTP microtask platform with a demo
// labeling workload, optionally driving it with a simulated crowd.
//
// Usage:
//
//	crowdserve -addr :8080 -tasks 100            # serve; workers poll /api/task
//	crowdserve -drive -workers 20 -regime mixed  # also simulate the crowd, then print results
//	crowdserve -budget 300                       # cap accepted answers at 300 (one unit each)
//	crowdserve -lease 2m                         # reclaim assignments abandoned for 2m
//	crowdserve -drive -dropout 0.3 -lease 200ms  # 30% of workers vanish mid-task
//	crowdserve -timeout 10s                      # server read/write + client deadlines
//	crowdserve -metrics                          # Prometheus exposition on /metrics + request logs
//	crowdserve -metrics -pprof                   # also mount /debug/pprof for profiling
//	crowdserve -trace                            # span flight recorder + /api/trace endpoints
//	crowdserve -trace -trace-sample 0.1          # keep errors/slow always, 10% of the rest
//	crowdserve -shards 8                         # partition the pool into 8 task-hash shards
//	crowdserve -cql-dir ./cql                    # CrowdQL sessions on /api/cql, catalogs persisted in ./cql
//
// With -cql-dir, /api/cql exposes the CrowdQL query service: named
// sessions execute SQL/CQL whose crowd questions (CROWDFILTER, ~=,
// crowd-column fills, ...) are published as tasks in this server's pool
// and answered by its workers through /api/task + /api/answer. Query
// handles stream partial rows while answers arrive, page with cursor
// tokens, and can be canceled (releasing the question's leases and
// refunding its reserved budget). Session catalogs are saved to the
// directory when a session closes — including graceful shutdown — and
// reload when a session of the same name is created again. With -data-dir
// as well, session lifecycle is journaled through the WAL: a kill -9
// recovers open sessions with their catalogs and prepared statements,
// resurfaces mid-flight query handles with status "recovered", closes
// orphaned crowd questions, and refunds their unconsumed budget
// reservations so the recovered spend equals acked answers exactly.
//
// The server handles concurrent workers without a global lock; see the
// server package docs for the concurrency model. With -lease set, every
// assignment carries a lease: a worker that claims a task and vanishes
// forfeits it after the TTL and the slot is re-issued, so the run still
// reaches its redundancy target under worker churn. /healthz serves a
// liveness probe.
//
// With -metrics, the server exposes per-endpoint latency histograms,
// budget/pool/lease gauges, assignment-policy counters, and EM
// convergence telemetry on /metrics, and logs one structured line per
// request (trace ID, method, path, status, duration) to stderr.
//
// With -trace, every request is traced through the serving stack — HTTP
// root span, assignment/record spans in the pool shards, WAL append and
// fsync spans, EM-run spans with per-iteration convergence events, and
// CrowdQL statement/stage/question spans — into a bounded in-memory
// flight recorder. Completed traces are read back by the ID echoed in
// every X-Trace-Id response header via GET /api/trace/{id}, browsed via
// GET /api/traces?endpoint=&min_ms=, and a crowd query's trace is
// resolved via its handle. Error and slow traces are always kept;
// -trace-sample tail-samples the rest, and -trace-buffer bounds memory.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net"
	"os"
	"os/signal"
	"runtime"
	"sync"
	"syscall"
	"time"

	"repro/internal/assign"
	"repro/internal/core"
	"repro/internal/crowd"
	"repro/internal/durable"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/stats"
)

func main() {
	var (
		addr    = flag.String("addr", "127.0.0.1:8080", "listen address")
		nTasks  = flag.Int("tasks", 100, "number of demo labeling tasks")
		drive   = flag.Bool("drive", false, "drive the platform with simulated workers and exit")
		workers = flag.Int("workers", 20, "simulated workers (with -drive)")
		regime  = flag.String("regime", "mixed", "crowd regime (with -drive)")
		budgetF = flag.Int64("budget", 0, "answer budget in units (0 = unlimited)")
		lease   = flag.Duration("lease", 0, "assignment lease TTL; abandoned tasks are re-issued after this (0 = leases off)")
		timeout = flag.Duration("timeout", 30*time.Second, "HTTP server read/write deadline and client per-attempt timeout")
		dropout = flag.Float64("dropout", 0, "fraction of simulated workers that claim a task and vanish (with -drive)")
		seed    = flag.Uint64("seed", 42, "random seed")
		metrics = flag.Bool("metrics", false, "expose Prometheus metrics on /metrics and log requests")
		pprofOn = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof (requires explicit opt-in)")
		shards  = flag.Int("shards", runtime.GOMAXPROCS(0), "task-hash shards for the serving pool (and WAL segments with -data-dir)")
		dataDir = flag.String("data-dir", "", "directory for the write-ahead log and snapshots; answers survive a crash or restart (empty = in-memory only)")
		cqlDir  = flag.String("cql-dir", "", "mount the CrowdQL query service under /api/cql, persisting session catalogs here (\"mem\" = mount without persistence)")
		cqlTTL  = flag.Duration("cql-idle", 0, "close CrowdQL sessions idle for this long (with -cql-dir; 0 = only explicit close)")
		fsyncF  = flag.String("fsync", "always", `WAL fsync policy: "always" (ack = on disk), a duration like "100ms" (batched flushes), or "off"`)
		snapEv  = flag.Duration("snapshot-every", 30*time.Second, "how often to compact the WAL into a snapshot (with -data-dir; 0 = only on shutdown)")
		traceOn = flag.Bool("trace", false, "record request traces and mount /api/trace endpoints")
		traceSm = flag.Float64("trace-sample", 1.0, "fraction of non-error, non-slow traces to keep (with -trace; errors and slow requests are always kept)")
		traceBf = flag.Int("trace-buffer", 1024, "kept-trace ring capacity (with -trace)")
	)
	flag.Parse()

	rng := stats.NewRNG(*seed)
	var budget *core.Budget
	if *budgetF > 0 {
		budget = core.NewBudget(*budgetF)
	} else if *dataDir != "" {
		// Durable deployments track spend even without a cap, so the
		// recovered budget_spent matches the recovered answer count.
		budget = core.Unlimited()
	}

	var store *durable.Store
	pool := core.NewPool()
	// served is where the served tasks can be read: the seed pool (whose
	// task pointers the server's pool shares), or the store's pool when the
	// workload was recovered rather than seeded.
	var served interface {
		Task(core.TaskID) *core.Task
		Len() int
	} = pool
	seedDemo := true
	if *dataDir != "" {
		policy, every, err := durable.ParseFsync(*fsyncF)
		if err != nil {
			fatal(err)
		}
		var info *durable.RecoveryInfo
		// One WAL segment per pool shard: the store's pool, which the server
		// serves, is sharded the way the log is segmented.
		store, info, err = durable.Open(*dataDir, durable.Options{
			Fsync: policy, FsyncEvery: every, SnapshotEvery: *snapEv,
			Segments: *shards,
		})
		if err != nil {
			fatal(err)
		}
		if !info.Empty() {
			// Serve the recovered state instead of reseeding: the demo
			// workload continues where the previous process stopped.
			served = store.Pool()
			seedDemo = false
			us := func(d time.Duration) time.Duration { return d.Round(time.Microsecond) }
			log.Printf("crowdserve: recovered %d tasks, %d answers (spent %v) from %s: snapshot=%v replayed=%d skipped=%d torn=%dB in %v (load %v, decode %v, merge %v, apply %v)",
				info.Tasks, info.Answers, info.BudgetSpent, *dataDir,
				info.SnapshotLoaded, info.Replayed, info.Skipped, info.TornBytes,
				us(info.ReplayDuration), us(info.SnapshotLoad), us(info.Decode), us(info.Merge), us(info.Apply))
			if info.CQLSessions > 0 || info.CQLOpenQuestions > 0 {
				// server.New finishes the CQL recovery: sessions reopen with
				// their catalogs, mid-flight queries come back as "recovered"
				// handles, and each orphaned question's task is closed with
				// its unconsumed reservation refunded.
				log.Printf("crowdserve: recovering CrowdQL state: %d open sessions, %d mid-flight queries, %d orphaned crowd questions to reconcile",
					info.CQLSessions, info.CQLRunningQueries, info.CQLOpenQuestions)
			}
		}
	}
	if seedDemo {
		// server.New adds these to the served pool, and with a store
		// journals them.
		for i := 0; i < *nTasks; i++ {
			pool.MustAdd(&core.Task{
				ID: core.TaskID(i + 1), Kind: core.SingleChoice,
				Question:    fmt.Sprintf("Demo question %d: yes or no?", i+1),
				Options:     []string{"no", "yes"},
				GroundTruth: rng.Intn(2), Difficulty: rng.Beta(2, 5),
			})
		}
	}
	opts := []server.Option{server.WithShards(*shards)}
	if store != nil {
		opts = append(opts, server.WithDurability(store))
	}
	if *lease > 0 {
		opts = append(opts, server.WithLeaseTTL(*lease))
	}
	var assigner core.Assigner = assign.FewestAnswers{}
	var reg *obs.Registry
	if *metrics {
		reg = obs.NewRegistry()
		assigner = assign.Instrument(assigner, reg, "fewest-answers")
		logger := slog.New(slog.NewTextHandler(os.Stderr, nil))
		opts = append(opts, server.WithMetrics(reg), server.WithRequestLog(logger))
	}
	if *pprofOn {
		opts = append(opts, server.WithPprof())
	}
	if *traceOn {
		col := obs.NewCollector(obs.CollectorOptions{
			Capacity:   *traceBf,
			SampleRate: *traceSm,
		})
		opts = append(opts, server.WithTracing(col))
	}
	if *cqlDir != "" {
		dir := *cqlDir
		if dir == "mem" {
			dir = ""
		}
		opts = append(opts, server.WithCQL(server.CQLConfig{
			Dir: dir, IdleTTL: *cqlTTL, Seed: *seed,
		}))
	}
	srv, err := server.New(pool, assigner, budget, nil, opts...)
	if err != nil {
		fatal(err)
	}
	defer srv.Close()

	// Both modes serve on one listener, so the log names the bound address
	// (-addr 127.0.0.1:0 picks a free port).
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	hs := server.HTTPServer(*addr, srv, *timeout)
	errCh := make(chan error, 1)
	go func() { errCh <- hs.Serve(ln) }()
	base := "http://" + ln.Addr().String()
	if !*drive {
		log.Printf("crowdserve: %d tasks on %s (GET /api/task?worker=you, shards=%d, lease=%v, metrics=%v, pprof=%v, data-dir=%q)",
			served.Len(), base, srv.Shards(), *lease, *metrics, *pprofOn, *dataDir)
		sigCh := make(chan os.Signal, 1)
		signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
		select {
		case err := <-errCh:
			fatal(err)
		case sig := <-sigCh:
			// Graceful shutdown: drain in-flight requests, then flush and
			// snapshot the durable store via srv.Close so the next boot
			// recovers from the snapshot alone.
			log.Printf("crowdserve: %v: shutting down", sig)
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			_ = hs.Shutdown(ctx)
			cancel()
			srv.Close()
		}
		return
	}

	// Self-driving demo: drive workers against the served pool, print
	// results.
	go func() { fatal(<-errCh) }()
	log.Printf("crowdserve: serving %d tasks on %s, driving %d %s workers (dropout %.0f%%, lease %v)",
		served.Len(), base, *workers, *regime, 100**dropout, *lease)

	mix, err := crowd.RegimeByName(*regime)
	if err != nil {
		fatal(err)
	}
	ws := crowd.WithDropout(rng, crowd.NewPopulation(rng, *workers, mix), *dropout, 1)
	client := server.NewClient(base, server.WithTimeout(*timeout))
	if reg != nil {
		client.RegisterMetrics(reg)
	}
	var wg sync.WaitGroup
	for _, w := range ws {
		wg.Add(1)
		go func(w core.Worker) {
			defer wg.Done()
			if _, err := client.DriveWorker(w, served.Task, 0); err != nil {
				log.Printf("worker %s: %v", w.ID(), err)
			}
		}(w)
	}
	wg.Wait()

	st, err := client.Stats()
	if err != nil {
		fatal(err)
	}
	fmt.Printf("collected %d answers from %d workers (budget spent: %v, active leases: %d, reclaimed: %d)\n",
		st.TotalAnswers, st.Workers, st.BudgetSpent, st.ActiveLeases, st.ExpiredLeases)
	results, err := client.Results("onecoin")
	if err != nil {
		fatal(err)
	}
	correct := 0
	for _, r := range results {
		if r.Label == served.Task(r.Task).GroundTruth {
			correct++
		}
	}
	fmt.Printf("OneCoinEM over HTTP: %d/%d correct (%.1f%%)\n",
		correct, len(results), 100*float64(correct)/float64(len(results)))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "crowdserve:", err)
	os.Exit(1)
}
