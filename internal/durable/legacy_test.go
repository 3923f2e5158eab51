package durable

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/core"
)

// testdata/jsonwal holds the WAL of a 2-segment store that ran
// jsonWALHistory and then crashed, written by this package's writer from
// before binary records, which journaled every event as a JSON record. It
// has every event type that writer journaled, elimination markers
// included, and one answer behind its task's close. To write it again,
// run jsonWALHistory on a store opened with jsonWALSegments segments in a
// checkout of that writer, Crash the store and copy its wal*.log files.
const (
	jsonWALDir      = "testdata/jsonwal"
	jsonWALSeed     = 7
	jsonWALSteps    = 600
	jsonWALSegments = 2
)

// jsonWALHistory is driveRandom plus one answer journaled behind its task's
// close, the way builds before answers were journaled under the shard lock
// could leave one: the store's journal hook is called directly, so the
// live pool never holds that answer but every recovery replays it.
func jsonWALHistory(t *testing.T, s *Store) {
	t.Helper()
	driveRandom(t, s, jsonWALSeed, jsonWALSteps, nil)
	var closed core.TaskID
	s.Pool().ViewAll(func(pools []*core.Pool) {
		for _, id := range core.TaskIDsOf(pools) {
			if pools[core.ShardIndex(id, len(pools))].Closed(id) {
				closed = id
				return
			}
		}
	})
	if closed == 0 {
		t.Fatal("the history closed no task")
	}
	if err := appendMutation(s, core.Mutation{Kind: core.MutAnswers, Answers: []core.Answer{{Task: closed, Worker: "late", Option: 1}}, Cost: 0.7}); err != nil {
		t.Fatal(err)
	}
}

// jsonWALFixture copies testdata/jsonwal into a fresh directory, after
// checking that it is what it claims to be: every record JSON, every event
// type present. It returns the directory and the number of records.
func jsonWALFixture(t *testing.T) (string, int) {
	t.Helper()
	log, err := ReadLog(jsonWALDir)
	if err != nil {
		t.Fatal(err)
	}
	types := map[string]bool{}
	records := 0
	for name := range log {
		payloads, _, _, err := readWAL(filepath.Join(jsonWALDir, name))
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range payloads {
			var ev Event
			if !legacyJSON(p) || json.Unmarshal(p, &ev) != nil {
				t.Fatalf("%s holds a record that is not JSON", name)
			}
			types[ev.Type] = true
		}
		records += len(log[name])
	}
	for _, typ := range append(crossTypes[tagBudgetCharged:], EvTaskAdded, EvAnswerRecorded, EvAnswerBatch,
		EvTaskClosed, EvLeaseIssued, EvLeaseExpired, EvWorkerEliminated) {
		if typ != "" && !types[typ] {
			t.Fatalf("%s has no %s record", jsonWALDir, typ)
		}
	}
	dir := t.TempDir()
	copyDir(t, jsonWALDir, dir)
	return dir, records
}

// assertConverted checks that dir is in the current format with nothing
// to replay: a format-2 pool.snap and every WAL file empty.
func assertConverted(t *testing.T, label, dir string) {
	t.Helper()
	if data, err := os.ReadFile(filepath.Join(dir, snapName)); err != nil || len(data) < snapHeader || string(data[:len(snapMagic)]) != snapMagic {
		t.Fatalf("%s: pool.snap is not format 2 (err %v)", label, err)
	}
	files, err := findWALs(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if fi, err := os.Stat(f.path); err != nil || fi.Size() != 0 {
			t.Fatalf("%s: %s is not empty after conversion (err %v)", label, filepath.Base(f.path), err)
		}
	}
}

// TestJSONWALOpensToSameStateAndConverts: a directory whose WAL the JSON
// writer left opens, under any segment count, to the state the same
// history written as binary records opens to — pool, per-task answer
// order, closes, leases, tallies, the CrowdQL ledger and the spend to the
// bit. Open converts it: it returns with a format-2 pool.snap and empty
// WALs, and the next Open loads the snapshot, converts nothing and
// replays nothing.
func TestJSONWALOpensToSameStateAndConverts(t *testing.T) {
	binaryDir := t.TempDir()
	s, _ := mustOpen(t, binaryDir, Options{Fsync: FsyncNever, Segments: jsonWALSegments})
	jsonWALHistory(t, s)
	s.Crash()

	for _, segments := range []int{1, 2, 3, 8} {
		label := fmt.Sprintf("segments=%d", segments)
		opts := Options{Fsync: FsyncNever, Segments: segments}
		open := func(dir string) (recoveryImage, *RecoveryInfo) {
			s, info := mustOpen(t, dir, opts)
			defer s.Crash()
			return imageOf(s), info
		}

		dir := t.TempDir()
		copyDir(t, binaryDir, dir)
		want, info := open(dir)
		if info.Converted || info.SnapshotLoaded {
			t.Fatalf("%s: the binary directory's recovery %+v, want the WAL alone and no conversion", label, info)
		}
		if len(want.Leases) == 0 || len(want.Closed) == 0 || len(want.Screen) == 0 ||
			len(want.Sessions) == 0 || len(want.Questions) == 0 {
			t.Fatalf("%s: the history lacks leases, closes, tallies or CrowdQL state: %+v", label, want)
		}

		dir, records := jsonWALFixture(t)
		got, info := open(dir)
		if !info.Converted || info.SnapshotLoaded || info.Replayed != records || info.TornBytes != 0 {
			t.Fatalf("%s: JSON WAL recovery %+v, want all %d records replayed and the directory converted", label, info, records)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: the JSON WAL recovers\n %+v\nthe binary one\n %+v", label, got, want)
		}
		assertConverted(t, label, dir)

		again, info := open(dir)
		if info.Converted || !info.SnapshotLoaded || info.Replayed != 0 || info.Skipped != 0 {
			t.Fatalf("%s: second Open %+v, want the snapshot alone", label, info)
		}
		if !reflect.DeepEqual(again, want) {
			t.Fatalf("%s: the converted directory reopens to\n %+v\nwant\n %+v", label, again, want)
		}
	}
}

// TestJSONWALConversionCrashBeforeTruncate: the conversion's snapshot is
// published but the process dies before the WAL is truncated — here the
// directory fsync after the rename fails, which fails Open with the JSON
// records still in place. The next Open skips every one of them, converts
// and recovers the same state.
func TestJSONWALConversionCrashBeforeTruncate(t *testing.T) {
	ref, records := jsonWALFixture(t)
	s, _ := mustOpen(t, ref, Options{Fsync: FsyncNever, Segments: jsonWALSegments})
	want := imageOf(s)
	s.Crash()

	dir, _ := jsonWALFixture(t)
	sizes := map[string]int64{}
	files, err := findWALs(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		fi, err := os.Stat(f.path)
		if err != nil {
			t.Fatal(err)
		}
		sizes[f.path] = fi.Size()
	}

	injected := errors.New("injected directory fsync failure")
	orig := syncDir
	syncDir = func(string) error { return injected }
	s, _, err = Open(dir, Options{Fsync: FsyncNever, Segments: jsonWALSegments})
	syncDir = orig
	if !errors.Is(err, injected) {
		if s != nil {
			s.Crash()
		}
		t.Fatalf("Open = %v, want the conversion's directory fsync failure", err)
	}
	if _, err := os.Stat(filepath.Join(dir, snapName)); err != nil {
		t.Fatalf("the conversion snapshot was not published: %v", err)
	}
	for path, size := range sizes {
		if fi, err := os.Stat(path); err != nil || fi.Size() != size {
			t.Fatalf("%s changed under a failed conversion (err %v)", filepath.Base(path), err)
		}
	}

	s, info := mustOpen(t, dir, Options{Fsync: FsyncNever, Segments: jsonWALSegments})
	got := imageOf(s)
	s.Crash()
	if !info.Converted || !info.SnapshotLoaded || info.Skipped != records || info.Replayed != 0 {
		t.Fatalf("recovery %+v, want the published snapshot with all %d JSON records skipped, converted", info, records)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered state diverges\n got %+v\nwant %+v", got, want)
	}
	assertConverted(t, "after the second Open", dir)
}

// FuzzLegacyWALRecord feeds arbitrary payloads to the JSON record reader,
// seeded with every record of testdata/jsonwal. No input may panic, and a
// record that decodes must re-encode as a binary record that decodes to
// the same record — the same mutation, or the same cross-task entry. The
// elimination marker, which has no binary record, is the one exception.
func FuzzLegacyWALRecord(f *testing.F) {
	files, err := findWALs(jsonWALDir)
	if err != nil {
		f.Fatal(err)
	}
	for _, file := range files {
		payloads, _, _, err := readWAL(file.path)
		if err != nil {
			f.Fatal(err)
		}
		for _, p := range payloads {
			f.Add(p)
		}
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		var rec Record
		if decodeLegacyRecord(payload, &rec) != nil || rec.Type == EvWorkerEliminated {
			return
		}
		if again := roundTrip(t, &rec); !reflect.DeepEqual(again, rec) {
			t.Fatalf("a JSON record decodes to\n %+v\nand through a binary record to\n %+v", rec, again)
		}
	})
}
