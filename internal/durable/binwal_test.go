package durable

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"path/filepath"
	"reflect"
	"testing"
)

// testdata/binwal holds the WAL of a 2-segment store that ran
// driveRandom(binWALSeed, binWALSteps) and then crashed, and
// testdata/format2.snap the snapshot that store cut just before the
// crash; both were written before WAL records were built from
// core.Mutation, and pin the binary formats across that rewrite. The
// history journals every binary record kind: golden grades both ways on
// single answers and on batches, lease sweeps and the CrowdQL ledger. To
// write them again, run driveRandom on a store opened with binWALSegments
// segments, write s.currentSnapshot() to a directory with writeSnapshot
// and copy its pool.snap, then Crash the store and copy its wal*.log
// files.
const (
	binWALDir      = "testdata/binwal"
	format2Path    = "testdata/format2.snap"
	binWALSeed     = 11
	binWALSteps    = 600
	binWALSegments = 2
	// binWALDigest is digestOf the state both fixtures open to, as the
	// writer of the fixtures recovered it.
	binWALDigest = "bdc237dc20e32d51a8239f30e1769c8cd0ffc0b2a2f61e42fd871e675833325c"
)

// walPayloads returns every record payload of the WAL files in dir, file
// by file in segment order.
func walPayloads(tb testing.TB, dir string) [][]byte {
	tb.Helper()
	files, err := findWALs(dir)
	if err != nil {
		tb.Fatal(err)
	}
	var out [][]byte
	for _, f := range files {
		payloads, _, torn, err := readWAL(f.path)
		if err != nil || torn != 0 {
			tb.Fatalf("%s: torn %d, err %v", f.path, torn, err)
		}
		out = append(out, payloads...)
	}
	return out
}

// digestOf hashes the JSON of a recovery image: maps in key order, spend
// and deadlines as integers, so it is the same on every machine.
func digestOf(tb testing.TB, img recoveryImage) string {
	tb.Helper()
	data, err := json.Marshal(img)
	if err != nil {
		tb.Fatal(err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// TestBinaryFixturesOpenToPinnedState: testdata/binwal covers every
// binary record kind, and it and testdata/format2.snap each open, under
// any segment count, to the state the writer of the fixtures recovered.
func TestBinaryFixturesOpenToPinnedState(t *testing.T) {
	payloads := walPayloads(t, binWALDir)
	tags := map[byte]bool{}
	grades := map[string]bool{}
	for _, p := range payloads {
		var rec Record
		if err := decodeRecord(p, &rec, nil); err != nil {
			t.Fatal(err)
		}
		tags[p[0]] = true
		for _, g := range rec.Mut.Golden {
			if g != nil {
				grades[fmt.Sprintf("batch=%v correct=%v", rec.Mut.Batch, *g)] = true
			}
		}
	}
	if len(tags) != numTags-1 || len(grades) != 4 {
		t.Fatalf("%s has %d of %d record tags and golden grades %v; want every tag and both grades on single answers and batches",
			binWALDir, len(tags), numTags-1, grades)
	}

	for _, segments := range []int{1, 2, 3, 8} {
		label := fmt.Sprintf("segments=%d", segments)
		opts := Options{Fsync: FsyncNever, Segments: segments}

		dir := t.TempDir()
		copyDir(t, binWALDir, dir)
		s, info := mustOpen(t, dir, opts)
		fromWAL := imageOf(s)
		s.Crash()
		if info.SnapshotLoaded || info.Replayed != len(payloads) || info.TornBytes != 0 {
			t.Fatalf("%s: WAL recovery %+v, want all %d records replayed", label, info, len(payloads))
		}
		if got := digestOf(t, fromWAL); got != binWALDigest {
			t.Fatalf("%s: the WAL opens to state %s, want %s:\n%+v", label, got, binWALDigest, fromWAL)
		}

		s, info = mustOpen(t, snapDir(t, mustRead(t, format2Path)), opts)
		fromSnap := imageOf(s)
		s.Crash()
		if !info.SnapshotLoaded || info.Replayed != 0 {
			t.Fatalf("%s: snapshot recovery %+v, want the snapshot alone", label, info)
		}
		if !reflect.DeepEqual(fromSnap, fromWAL) {
			t.Fatalf("%s: the snapshot opens to\n %+v\nthe WAL to\n %+v", label, fromSnap, fromWAL)
		}
	}
}

// TestBinaryWALRecordsReencodeExactly: every record of testdata/binwal
// decodes and encodes back to its exact bytes.
func TestBinaryWALRecordsReencodeExactly(t *testing.T) {
	for _, p := range walPayloads(t, binWALDir) {
		var rec Record
		if err := decodeRecord(p, &rec, nil); err != nil {
			t.Fatal(err)
		}
		if got := appendRecord(nil, &rec); !bytes.Equal(got, p) {
			t.Fatalf("record seq %d re-encodes as\n %x\nnot\n %x", rec.Seq, got, p)
		}
	}
}

// TestFormat2SnapshotRewritesToSameBytes: the snapshot a store cuts after
// opening testdata/binwal, or testdata/format2.snap itself, under the
// fixtures' segment count is testdata/format2.snap byte for byte.
func TestFormat2SnapshotRewritesToSameBytes(t *testing.T) {
	want := mustRead(t, format2Path)
	opts := Options{Fsync: FsyncNever, Segments: binWALSegments}
	wal := t.TempDir()
	copyDir(t, binWALDir, wal)
	for label, dir := range map[string]string{"from the WAL": wal, "from the snapshot": snapDir(t, want)} {
		s, _ := mustOpen(t, dir, opts)
		img, err := s.currentSnapshot()
		s.Crash()
		if err != nil {
			t.Fatal(err)
		}
		if got := bytes.Join(img.parts, nil); !bytes.Equal(got, want) {
			t.Fatalf("%s: the snapshot is %d bytes that differ from %s's %d", label, len(got), filepath.Base(format2Path), len(want))
		}
	}
}

// The state the fixtures hold is driveRandom's: a store that runs the
// history again ends in it.
func TestBinaryFixturesHoldTheirHistory(t *testing.T) {
	s, _ := mustOpen(t, t.TempDir(), Options{Fsync: FsyncNever, Segments: binWALSegments})
	driveRandom(t, s, binWALSeed, binWALSteps, nil)
	img := imageOf(s)
	s.Crash()
	if got := digestOf(t, img); got != binWALDigest {
		t.Fatalf("driveRandom(%d, %d) ends in state %s, want %s", binWALSeed, binWALSteps, got, binWALDigest)
	}
}
