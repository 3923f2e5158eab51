package server

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/assign"
	"repro/internal/core"
	"repro/internal/cql"
	"repro/internal/durable"
)

// The log is the state: a durable server's pool is the store's, every
// mutation is appended before it is applied, and these tests hold the two
// to each other from the outside — by reading the WAL files back, by
// comparing a crashed server's memory with what its directory reopens to,
// and by looking for any trace of an answer the log refused.

// durableServer boots a durable server over dir with the query service
// mounted in memory, one shard per WAL segment.
func durableServer(t *testing.T, dir string, shards int, seed *core.Pool, screen *core.WorkerScreen, opts ...Option) (*httptest.Server, *Server, *durable.Store, *core.Budget) {
	t.Helper()
	store, _, err := durable.Open(dir, durable.Options{Fsync: durable.FsyncNever, Segments: shards})
	if err != nil {
		t.Fatal(err)
	}
	budget := core.Unlimited()
	opts = append([]Option{
		WithDurability(store),
		WithCQL(CQLConfig{Redundancy: 3, ExecuteGrace: time.Millisecond}),
	}, opts...)
	srv, err := New(seed, assign.FewestAnswers{}, budget, screen, opts...)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(func() { ts.Close(); srv.Close() })
	return ts, srv, store, budget
}

// answerers runs n workers that fetch and answer whatever the pool offers until
// stop is closed, and returns a function that waits for them.
func answerers(base string, n int, stop <-chan struct{}) (wait func()) {
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(name string) {
			defer wg.Done()
			client := NewClient(base, WithRetry(-1, 0, 0))
			for {
				select {
				case <-stop:
					return
				default:
				}
				dto, ok, err := client.FetchTask(name)
				if err != nil || !ok {
					time.Sleep(200 * time.Microsecond)
					continue
				}
				// A late answer to a question that just closed is a 409.
				_ = client.SubmitAnswer(AnswerDTO{Task: dto.ID, Worker: name, Option: 1})
			}
		}(fmt.Sprintf("crowd%d", w))
	}
	return wg.Wait
}

// readSegments decodes every WAL segment file in dir, in file order.
func readSegments(t *testing.T, dir string) map[string][]durable.Record {
	t.Helper()
	out, err := durable.ReadLog(dir)
	if err != nil || len(out) == 0 {
		t.Fatalf("reading the WAL files in %s: %d files, %v", dir, len(out), err)
	}
	return out
}

// (a) WAL order. Fifty crowd rounds answered by eight racing workers: the
// collector closes a question the moment it sees the k-th answer, and that
// answer's record must already be in the log — in no segment may an answer
// for a task sit behind the task's close.
func TestWALNeverHoldsCloseAheadOfAnAnswer(t *testing.T) {
	dir := t.TempDir()
	ts, _, store, _ := durableServer(t, dir, testShards(), nil, nil, WithLeaseTTL(time.Minute))
	cqlCreate(t, ts.URL, "s")
	cqlExecuteDone(t, ts.URL, "s", cqlSeedSQL)
	stop := make(chan struct{})
	wait := answerers(ts.URL, 8, stop)
	const rounds = 50
	for i := 0; i < rounds; i++ {
		page := cqlExecute(t, ts.URL, "s", roundCrowdSQL)
		if end := waitQueryEnd(t, ts.URL, "s", page.Query); end.Status != cql.QueryDone {
			t.Fatalf("round %d ended %s %q", i, end.Status, end.Error)
		}
	}
	close(stop)
	wait()
	store.Crash()

	closes, answers := 0, 0
	for file, events := range readSegments(t, dir) {
		closed := map[core.TaskID]uint64{}
		late := func(id core.TaskID, seq uint64) {
			if at, ok := closed[id]; ok {
				t.Errorf("%s: answer for task %d at seq %d sits behind its task_closed at seq %d", file, id, seq, at)
			}
			answers++
		}
		for _, ev := range events {
			switch ev.Mut.Kind {
			case core.MutClose:
				closed[ev.Mut.ID] = ev.Seq
				closes++
			case core.MutAnswers:
				for _, a := range ev.Mut.Answers {
					late(a.Task, ev.Seq)
				}
			}
		}
	}
	if closes != 3*rounds || answers < 3*closes {
		t.Fatalf("the log holds %d closes and %d answers; %d rounds of 3 questions at k=3 close %d tasks on at least %d answers",
			closes, answers, rounds, 3*rounds, 9*rounds)
	}
}

// poolImage is a pool's content in a form independent of the shard layout.
type poolImage struct {
	Tasks   map[core.TaskID]core.Task
	Answers map[core.TaskID][]core.Answer
	Closed  map[core.TaskID]bool
	Leases  []string // "task worker deadline-in-ns", by (task, worker)
}

func imageOfPool(sp *core.ShardedPool) poolImage {
	img := poolImage{
		Tasks:   map[core.TaskID]core.Task{},
		Answers: map[core.TaskID][]core.Answer{},
		Closed:  map[core.TaskID]bool{},
	}
	sp.ViewAll(func(pools []*core.Pool) {
		for _, p := range pools {
			for _, id := range p.TaskIDs() {
				task := *p.Task(id)
				task.Payload = nil // never journaled
				img.Tasks[id] = task
				if as := p.Answers(id); len(as) > 0 {
					img.Answers[id] = append([]core.Answer(nil), as...)
				}
				if p.Closed(id) {
					img.Closed[id] = true
				}
			}
		}
		for _, l := range core.LeasesOf(pools) {
			img.Leases = append(img.Leases, fmt.Sprintf("%d %s %d", l.Task, l.Worker, l.Deadline.UnixNano()))
		}
	})
	return img
}

// (b) Equality, not superset. Answers, batches, abandoned leases the reaper
// expires, golden grading and a crowd round, all racing; then a crash. What
// the directory reopens to must equal what the crashed server held in
// memory — tasks, per-task answer order, closes, leases, the spend to the
// bit and the screen tallies — under one shard and under four.
func TestRecoveredStateEqualsCrashedMemory(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards_%d", shards), func(t *testing.T) {
			const nTasks, nGolden = 40, 8
			seed := core.NewPool()
			for i := 1; i <= nTasks; i++ {
				seed.MustAdd(&core.Task{
					ID: core.TaskID(i), Kind: core.SingleChoice, Question: fmt.Sprintf("q%d?", i),
					Options: []string{"no", "yes"}, Golden: i <= nGolden, GroundTruth: i % 2,
				})
			}
			dir := t.TempDir()
			screen := core.NewWorkerScreen(4, 0.6)
			ts, srv, store, budget := durableServer(t, dir, shards, seed, screen,
				WithShards(shards), WithLeaseTTL(5*time.Millisecond), WithReaperInterval(10*time.Millisecond))
			cqlCreate(t, ts.URL, "s")
			cqlExecuteDone(t, ts.URL, "s", cqlSeedSQL)
			page := cqlExecute(t, ts.URL, "s", roundCrowdSQL)

			var wg sync.WaitGroup
			for g := 0; g < 6; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(100*shards + g)))
					client := NewClient(ts.URL, WithRetry(-1, 0, 0))
					name := fmt.Sprintf("w%d", g)
					for step := 0; step < 120; step++ {
						switch op := rng.Intn(10); {
						case op < 5: // the worker loop
							if dto, ok, err := client.FetchTask(name); err == nil && ok {
								_ = client.SubmitAnswer(AnswerDTO{Task: dto.ID, Worker: name, Option: rng.Intn(2)})
							}
						case op < 7: // claim a task and walk away: the lease expires
							_, _, _ = client.FetchTask(fmt.Sprintf("idler%d-%d", g, step))
						default: // a batch over random tasks, duplicates and all
							batch := make([]AnswerDTO, 2+rng.Intn(6))
							for i := range batch {
								batch[i] = AnswerDTO{
									Task: core.TaskID(1 + rng.Intn(nTasks)), Worker: fmt.Sprintf("b%d-%d", g, rng.Intn(20)),
									Option: rng.Intn(2),
								}
							}
							_, _ = client.SubmitAnswers(batch)
						}
					}
				}(g)
			}
			wg.Wait()
			// The crowd round still needs its answers; the loop above may not
			// have reached every question.
			stop := make(chan struct{})
			wait := answerers(ts.URL, 4, stop)
			end := waitQueryEnd(t, ts.URL, "s", page.Query)
			close(stop)
			wait()
			if end.Status != cql.QueryDone {
				t.Fatalf("crowd round ended %s %q", end.Status, end.Error)
			}
			deadline := time.Now().Add(5 * time.Second)
			for srv.ExpiredLeases() == 0 {
				if time.Now().After(deadline) {
					t.Fatal("the reaper never expired an abandoned lease")
				}
				time.Sleep(time.Millisecond)
			}

			// Crash first: from here on the journal refuses everything, so
			// memory can no longer move and can be read at leisure.
			store.Crash()
			live := imageOfPool(store.Pool())
			liveSpent, liveScreen := budget.Spent(), screen.Export()
			if len(live.Answers) == 0 || len(live.Closed) != 3 || len(liveScreen) == 0 {
				t.Fatalf("the run left %d answered tasks, %d closed, %d graded workers; it should exercise all three",
					len(live.Answers), len(live.Closed), len(liveScreen))
			}

			store2, info, err := durable.Open(dir, durable.Options{Fsync: durable.FsyncNever, Segments: shards})
			if err != nil {
				t.Fatal(err)
			}
			defer store2.Crash()
			if got := imageOfPool(store2.Pool()); !reflect.DeepEqual(got, live) {
				t.Fatalf("recovered pool diverges from the crashed server's\n got %+v\nwant %+v", got, live)
			}
			spent, tallies := store2.Ledger()
			if spent != liveSpent {
				t.Fatalf("recovered spend %v, the crashed server had charged %v", spent, liveSpent)
			}
			if !reflect.DeepEqual(tallies, liveScreen) {
				t.Fatalf("recovered tallies %v, the crashed server's screen held %v", tallies, liveScreen)
			}
			if info.CQLOpenQuestions != 0 {
				t.Fatalf("recovery found %d open questions after a finished round", info.CQLOpenQuestions)
			}
		})
	}
}

// (c) A 500'd answer is never observable. The store dies under a waiting
// crowd round one answer short of closing a question; the answer that
// would have closed it comes back 500, and the collector — which reads the
// pool — must not refund, close or resolve anything on its account.
func TestRefusedAnswerInvisibleToWaitingRound(t *testing.T) {
	ts, srv, store, budget := durableServer(t, t.TempDir(), testShards(), nil, nil, WithShards(testShards()))
	client := NewClient(ts.URL, WithRetry(-1, 0, 0))
	cqlCreate(t, ts.URL, "s")
	cqlExecuteDone(t, ts.URL, "s", cqlSeedSQL)
	page := cqlExecute(t, ts.URL, "s", roundCrowdSQL)
	open := openQuestions(t, srv, 3)
	answerN(t, client, open["beagle"], 2)

	before, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	version, spent := srv.cpool.Version(), budget.Spent()
	store.Crash()

	err = client.SubmitAnswer(AnswerDTO{Task: open["beagle"], Worker: "closer", Option: 1})
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusInternalServerError {
		t.Fatalf("answer after the store crashed: err = %v, want HTTP 500", err)
	}
	if res, err := client.SubmitAnswers([]AnswerDTO{
		{Task: open["beagle"], Worker: "closer", Option: 1},
		{Task: open["poodle"], Worker: "closer", Option: 1},
	}); err == nil {
		t.Fatalf("batch after the store crashed succeeded: %+v", res)
	}
	// Several collector wake-ups: the notify hook and the 50ms fallback poll.
	time.Sleep(3 * cqlAnswerPoll)

	after, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if *after != *before {
		t.Fatalf("a refused answer moved /api/stats:\nbefore %+v\nafter  %+v", before, after)
	}
	if v := srv.cpool.Version(); v != version {
		t.Fatalf("a refused answer moved the pool version %d -> %d", version, v)
	}
	if budget.Spent() != spent {
		t.Fatalf("a refused answer moved the budget %v -> %v", spent, budget.Spent())
	}
	if got := cqlPoll(t, ts.URL, "s", page.Query, "", 0); got.Status != cql.QueryRunning || len(got.Rows) != 0 {
		t.Fatalf("the round resolved on a refused answer: status %s, rows %v", got.Status, got.Rows)
	}
	if served := flat(srv.cpool); served.Closed(open["beagle"]) || served.AnswerCount(open["beagle"]) != 2 {
		t.Fatalf("question closed=%v with %d answers; want open with the 2 acked ones",
			served.Closed(open["beagle"]), served.AnswerCount(open["beagle"]))
	}
}

// One shard count: a durable server's is the store's segment count.
func TestDurableServerShardsAreTheStoresSegments(t *testing.T) {
	open := func(dir string, segments int) *durable.Store {
		store, _, err := durable.Open(dir, durable.Options{Fsync: durable.FsyncNever, Segments: segments})
		if err != nil {
			t.Fatal(err)
		}
		return store
	}
	dir := t.TempDir()
	store := open(dir, 2)
	if _, err := New(nil, assign.FewestAnswers{}, nil, nil, WithShards(3), WithDurability(store)); err == nil {
		t.Fatal("WithShards(3) over a 2-segment store was accepted")
	}
	srv, err := New(goldenPool(5, 1), assign.FewestAnswers{}, nil, nil, WithDurability(store))
	if err != nil {
		t.Fatal(err)
	}
	if srv.Shards() != 2 {
		t.Fatalf("server runs %d shards over a 2-segment store", srv.Shards())
	}
	srv.Close()

	// The same directory under another count: recovery re-routes, and the
	// server follows the store. A second seed on top of it is refused.
	store = open(dir, 3)
	if _, err := New(goldenPool(5, 1), assign.FewestAnswers{}, nil, nil, WithDurability(store)); err == nil {
		t.Fatal("seeding a store that already holds tasks was accepted")
	}
	srv, err = New(nil, assign.FewestAnswers{}, nil, nil, WithShards(3), WithDurability(store))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if srv.Shards() != 3 || srv.cpool.Len() != 5 {
		t.Fatalf("reopened under 3 segments: %d shards, %d tasks; want 3 and 5", srv.Shards(), srv.cpool.Len())
	}
}

// (d) Retention. A data directory an older build left in JSON — WAL
// records only, every event type, written by a crashed 2-segment store —
// does not boot: Open fails, its error names the commit whose build
// converts the directory, and the directory is left byte for byte as it
// was.
func TestJSONEraDirectoryRefusedAtBoot(t *testing.T) {
	refusedAtBoot(t, "jsonwal", "ccc93f0", nil)
}

// The same holds for a WAL an older build left with money that is not
// whole units (fractional answer costs, budget and question amounts): the
// error names the last commit that reads it.
func TestFractionalMoneyDirectoryRefusedAtBoot(t *testing.T) {
	refusedAtBoot(t, "fracwal", "41542c1", nil)
}

// And for a WAL a newer build wrote to: this build's WAL fixture with one
// more checksummed record, under tag 255, which no build has written yet,
// at the end of its first segment file. An older build would cut it there.
func TestUnknownRecordDirectoryRefusedAtBoot(t *testing.T) {
	refusedAtBoot(t, "binwal", "newer build", func(files map[string][]byte) {
		payload := []byte{255, 1} // tag, then a sequence number
		frame := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
		frame = binary.LittleEndian.AppendUint32(frame, crc32.ChecksumIEEE(payload))
		files["wal.log"] = slices.Concat(files["wal.log"], frame, payload)
	})
}

// refusedAtBoot copies the WAL fixture durable/testdata/<fixture> to a
// directory, passing its files through edit first when edit is not nil,
// checks that Open fails on it with an error that says want (for an older
// format, the commit whose build reads it), and that the directory is left
// as it was.
func refusedAtBoot(t *testing.T, fixture, want string, edit func(files map[string][]byte)) {
	t.Helper()
	dir := t.TempDir()
	fixture = filepath.Join("..", "durable", "testdata", fixture)
	entries, err := os.ReadDir(fixture)
	if err != nil {
		t.Fatal(err)
	}
	files := map[string][]byte{}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(fixture, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = data
	}
	if edit != nil {
		edit(files)
	}
	for name, data := range files {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	store, _, err := durable.Open(dir, durable.Options{Fsync: durable.FsyncNever, Segments: 2})
	if err == nil {
		store.Crash()
		t.Fatalf("%s opened", fixture)
	}
	if !strings.Contains(err.Error(), want) {
		t.Fatalf("Open = %v, want an error that says %q", err, want)
	}
	entries, err = os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(files) {
		t.Fatalf("the refused boot left %d files, want the %d it found", len(entries), len(files))
	}
	for name, data := range files {
		if got, err := os.ReadFile(filepath.Join(dir, name)); err != nil || !bytes.Equal(got, data) {
			t.Fatalf("the refused boot changed %s (err %v)", name, err)
		}
	}
}
