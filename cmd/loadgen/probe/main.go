// Command probe times direct calls into public functions the span
// recorder has no span for, on a data directory shaped like
// recovery_boot's: durable.Open (WAL replay), Store.State, truth.FromPool,
// OneCoinEM.Infer cold against warm, and cql.ParseAll. It prints one JSON
// object of named metrics on standard output.
//
// It is a package of its own, run by `loadgen -out` and never by the
// BENCHMARK.json command: a refactor of these functions may break the
// probe without breaking the benchmark.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/cql"
	"repro/internal/durable"
	"repro/internal/truth"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var (
		dir     = flag.String("dir", "", "empty directory to write the WAL into")
		tasks   = flag.Int("tasks", 5000, "tasks")
		answers = flag.Int("answers", 100000, "answers")
		batch   = flag.Int("batch", 10, "answers per journaled batch")
		shards  = flag.Int("shards", 2, "WAL segments")
		seed    = flag.Uint64("seed", 42, "seed of the answer options")
	)
	flag.Parse()
	if err := run(*dir, *tasks, *answers, *batch, *shards, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "probe:", err)
		os.Exit(1)
	}
}

func run(dir string, tasks, answers, batch, shards int, seed uint64) error {
	opts := durable.Options{Fsync: durable.FsyncNever, Segments: shards}
	if err := write(dir, opts, tasks, answers, batch, seed); err != nil {
		return err
	}
	out := map[string]metric{}

	start := time.Now()
	store, info, err := durable.Open(dir, opts)
	if err != nil {
		return err
	}
	out["durable.open_probe_s"] = metric{time.Since(start).Seconds(), "s"}
	if info.Answers != answers {
		return fmt.Errorf("replayed %d answers, wrote %d", info.Answers, answers)
	}

	start = time.Now()
	pool, _, _ := store.State()
	out["durable.state_probe_ms"] = metric{ms(time.Since(start)), "ms"}

	start = time.Now()
	ds, err := truth.FromPool(pool, pool.TaskIDs())
	if err != nil {
		return err
	}
	out["truth.frompool_probe_ms"] = metric{ms(time.Since(start)), "ms"}

	start = time.Now()
	cold, err := truth.OneCoinEM{}.Infer(ds)
	if err != nil {
		return err
	}
	out["truth.infer_cold_probe_ms"] = metric{ms(time.Since(start)), "ms"}

	start = time.Now()
	if _, err := (truth.OneCoinEM{Warm: cold.Warm}).Infer(ds); err != nil {
		return err
	}
	out["truth.infer_warm_probe_ms"] = metric{ms(time.Since(start)), "ms"}

	const src = "SELECT items.kind, COUNT(*) FROM facts JOIN items ON facts.item = items.id GROUP BY items.kind; " +
		"SELECT * FROM items WHERE CROWDFILTER('is it a dog?', kind)"
	parse := make([]float64, 1000)
	for i := range parse {
		start = time.Now()
		if _, err := cql.ParseAll(src); err != nil {
			return err
		}
		parse[i] = float64(time.Since(start)) / float64(time.Microsecond)
	}
	sort.Float64s(parse)
	out["cql.parse_probe_us"] = metric{parse[len(parse)/2], "us"}

	// The store is dropped, not closed: Close would fold the log into a
	// snapshot, and the directory is removed by the caller anyway.
	return json.NewEncoder(os.Stdout).Encode(out)
}

// write journals the tasks and then the answers in batches, and leaves
// the store unclosed, as a killed process would.
func write(dir string, opts durable.Options, tasks, answers, batch int, seed uint64) error {
	store, _, err := durable.Open(dir, opts)
	if err != nil {
		return err
	}
	for i := 1; i <= tasks; i++ {
		store.TaskAdded(&core.Task{
			ID: core.TaskID(i), Kind: core.SingleChoice,
			Question: fmt.Sprintf("Demo question %d: yes or no?", i), Options: []string{"no", "yes"},
		})
	}
	for from := 0; from < answers; from += batch {
		n := min(batch, answers-from)
		as := make([]core.Answer, n)
		costs := make([]float64, n)
		for j := range as {
			k := from + j
			task := k%tasks + 1
			// All but about one answer in sixteen agree with the planted label, task mod 2.
			option := task % 2
			if (uint64(k)*0x9e3779b97f4a7c15+seed)>>60 == 0 {
				option = 1 - option
			}
			as[j] = core.Answer{Task: core.TaskID(task), Worker: fmt.Sprintf("w%d", k/tasks), Option: option}
			costs[j] = 1
		}
		if err := store.AnswerBatchDurable(as, costs, make([]*bool, n)); err != nil {
			return err
		}
	}
	return store.Err()
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
