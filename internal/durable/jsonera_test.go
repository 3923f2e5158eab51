package durable

import (
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
)

// testdata/jsonwal holds the WAL of a 2-segment store that ran
// driveRandom(jsonWALSeed, jsonWALSteps), journaled one answer behind its
// task's close and crashed, written by this package's writer from before
// binary records, which journaled every event as a JSON record.
// testdata/format1.snap (snapshot_test.go) is the format-1 snapshot of
// another such history. No build since c4c6125 writes either format, and
// Open refuses both: they are the inputs of the refusal tests.
const (
	jsonWALDir      = "testdata/jsonwal"
	jsonWALSeed     = 7
	jsonWALSteps    = 600
	jsonWALSegments = 2
)

// jsonWALPayloads returns every record payload of testdata/jsonwal, file
// by file in segment order, after checking that each one is JSON.
func jsonWALPayloads(tb testing.TB) [][]byte {
	tb.Helper()
	payloads := walPayloads(tb, jsonWALDir)
	for _, p := range payloads {
		if !legacyJSON(p) || !json.Valid(p) {
			tb.Fatalf("%s holds a record that is not JSON", jsonWALDir)
		}
	}
	return payloads
}

// dirFiles returns every file in dir by name, with its contents.
func dirFiles(tb testing.TB, dir string) map[string]string {
	tb.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		tb.Fatal(err)
	}
	files := make(map[string]string, len(entries))
	for _, e := range entries {
		files[e.Name()] = string(mustRead(tb, filepath.Join(dir, e.Name())))
	}
	return files
}

// assertRefused opens dir and checks that Open fails with want (errJSONEra
// or errFractionalMoney) and leaves every file in dir as it was, none
// added.
func assertRefused(tb testing.TB, label, dir string, opts Options, want error) {
	tb.Helper()
	before := dirFiles(tb, dir)
	s, _, err := Open(dir, opts)
	if s != nil {
		s.Crash()
	}
	if !errors.Is(err, want) {
		tb.Fatalf("%s: Open = %v, want %v", label, err, want)
	}
	if after := dirFiles(tb, dir); !maps.Equal(after, before) {
		tb.Fatalf("%s: the refused Open changed the directory", label)
	}
}

// coveringSnapshot returns a format-2 snapshot of the history
// testdata/jsonwal was written from whose LastSeq covers every record of
// that WAL: the pool.snap that a conversion publishes and a crash leaves
// behind before it truncates the JSON WAL.
func coveringSnapshot(t *testing.T) []byte {
	t.Helper()
	var last uint64
	for _, p := range jsonWALPayloads(t) {
		var rec struct {
			Seq uint64 `json:"seq"`
		}
		if err := json.Unmarshal(p, &rec); err != nil {
			t.Fatal(err)
		}
		last = max(last, rec.Seq)
	}
	dir := t.TempDir()
	s, _ := mustOpen(t, dir, Options{Fsync: FsyncNever, Segments: jsonWALSegments})
	driveRandom(t, s, jsonWALSeed, jsonWALSteps, nil)
	// The JSON writer also journaled elimination markers, so its sequence
	// numbers run ahead of this build's for the same history.
	s.seq = max(s.seq, last)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return mustRead(t, filepath.Join(dir, snapName))
}

// TestJSONEraDirectoryRefused: a directory holding a format-1 pool.snap,
// JSON WAL records, both, or a format-2 snapshot over the JSON WAL it
// covers fails Open with errJSONEra under any segment count, and Open
// writes nothing to it: no torn tail cut, no snapshot published, no WAL
// file created.
func TestJSONEraDirectoryRefused(t *testing.T) {
	f1, f2 := readFormat1(t), coveringSnapshot(t)
	shapes := []struct {
		name string
		snap []byte // nil: no pool.snap
		wal  bool   // testdata/jsonwal's files
	}{
		{"Format1Snapshot", f1, false},
		{"JSONWAL", nil, true},
		{"Format1SnapshotAndJSONWAL", f1, true},
		{"Format2SnapshotOverItsJSONWAL", f2, true},
	}
	for _, shape := range shapes {
		t.Run(shape.name, func(t *testing.T) {
			for _, segments := range []int{1, 2, 3} {
				dir := t.TempDir()
				if shape.snap != nil {
					dir = snapDir(t, shape.snap)
				}
				if shape.wal {
					copyDir(t, jsonWALDir, dir)
				}
				assertRefused(t, fmt.Sprintf("segments=%d", segments), dir,
					Options{Fsync: FsyncNever, Segments: segments}, errJSONEra)
			}
		})
	}
}

// FuzzLegacyWALRecord frames arbitrary JSON records behind one binary
// record in a WAL file, seeded with every record of testdata/jsonwal.
// Open must refuse each with errJSONEra and leave the file as it was: a
// checksummed record that starts with '{' is never cut like an
// undecodable one.
func FuzzLegacyWALRecord(f *testing.F) {
	for _, p := range jsonWALPayloads(f) {
		f.Add(p)
	}
	first := appendRecord(nil, &Record{Seq: 1, Mut: core.Mutation{Kind: core.MutAddTask,
		Task: &core.Task{ID: 1, Kind: core.FillIn, Question: "q", GroundTruth: -1}}})
	f.Fuzz(func(t *testing.T, payload []byte) {
		if !legacyJSON(payload) || len(payload) > maxRecordBytes {
			return
		}
		dir := t.TempDir()
		log := appendFrame(appendFrame(nil, first), payload)
		if err := os.WriteFile(filepath.Join(dir, walName), log, 0o644); err != nil {
			t.Fatal(err)
		}
		assertRefused(t, "a JSON record behind a binary one", dir, Options{Fsync: FsyncNever}, errJSONEra)
	})
}
