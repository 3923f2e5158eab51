package durable

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"path/filepath"
	"reflect"
	"testing"
)

// testdata/binwal holds the WAL of a 2-segment store that ran
// driveRandom(binWALSeed, binWALSteps) and then crashed, and
// testdata/format3.snap the snapshot that store cut just before the
// crash. They pin the WAL records and snapshot format 3 this build writes,
// byte for byte. The history journals every record kind this build
// writes: golden grades both ways on single answers and on batches, lease
// sweeps and the CrowdQL ledger. To write them again, run driveRandom on a
// store opened with binWALSegments segments, write s.currentSnapshot() to
// a directory with writeSnapshot and copy its pool.snap, then Crash the
// store and copy its wal*.log files.
const (
	binWALDir      = "testdata/binwal"
	format3Path    = "testdata/format3.snap"
	binWALSeed     = 11
	binWALSteps    = 600
	binWALSegments = 2
	// binWALDigest is digestOf the state both fixtures open to.
	binWALDigest = "f8844e33ec4954f5c2e3b221d82b56822ba4e69cdb780ca24badf848356ad12d"
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

// TestBinaryFixturesOpenToPinnedState: testdata/binwal holds every record
// tag this build writes and testdata/unitwal every tag the builds with
// float money wrote, and each WAL and the snapshot cut from its history
// (testdata/format3.snap, testdata/format2-units.snap) open, under any
// segment count, to the state and spend their writer recovered. A format-2
// snapshot is written again as format 3, which opens to the same state.
func TestBinaryFixturesOpenToPinnedState(t *testing.T) {
	for _, fx := range []struct {
		wal, snap, digest string
		tags              func(tag byte) bool // the tags the WAL must hold
	}{
		{binWALDir, format3Path, binWALDigest, func(tag byte) bool { return !retiredTags[tag] }},
		{unitWALDir, format2UnitsPath, unitWALDigest, func(tag byte) bool { return tag < tagAnswerRecorded }},
	} {
		payloads := walPayloads(t, fx.wal)
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
		for tag := byte(1); tag < numTags; tag++ {
			if tags[tag] != fx.tags(tag) {
				t.Fatalf("%s: holds tag %d: %v, want %v", fx.wal, tag, tags[tag], fx.tags(tag))
			}
		}
		if len(grades) != 4 {
			t.Fatalf("%s has golden grades %v; want both grades on single answers and batches", fx.wal, grades)
		}

		for _, segments := range []int{1, 2, 3, 8} {
			label := fmt.Sprintf("%s segments=%d", fx.wal, segments)
			opts := Options{Fsync: FsyncNever, Segments: segments}

			dir := t.TempDir()
			copyDir(t, fx.wal, dir)
			s, info := mustOpen(t, dir, opts)
			fromWAL := imageOf(s)
			s.Crash()
			if info.SnapshotLoaded || info.Replayed != len(payloads) || info.TornBytes != 0 || info.BudgetSpent != fromWAL.Spent {
				t.Fatalf("%s: WAL recovery %+v, want all %d records replayed", label, info, len(payloads))
			}
			if got := digestOf(t, fromWAL); got != fx.digest {
				t.Fatalf("%s: the WAL opens to state %s, want %s:\n%+v", label, got, fx.digest, fromWAL)
			}

			s, info = mustOpen(t, snapDir(t, mustRead(t, fx.snap)), opts)
			fromSnap := imageOf(s)
			rewritten, err := s.currentSnapshot()
			s.Crash()
			if err != nil {
				t.Fatal(err)
			}
			if !info.SnapshotLoaded || info.Replayed != 0 {
				t.Fatalf("%s: snapshot recovery %+v, want the snapshot alone", label, info)
			}
			if !reflect.DeepEqual(fromSnap, fromWAL) {
				t.Fatalf("%s: the snapshot opens to\n %+v\nthe WAL to\n %+v", label, fromSnap, fromWAL)
			}
			data := bytes.Join(rewritten.parts, nil)
			if format := binary.LittleEndian.Uint16(data[len(snapMagic):]); format != snapFormat {
				t.Fatalf("%s: the snapshot is written again in format %d", label, format)
			}
			s, _ = mustOpen(t, snapDir(t, data), opts)
			again := imageOf(s)
			s.Crash()
			if !reflect.DeepEqual(again, fromWAL) {
				t.Fatalf("%s: the rewritten snapshot opens to\n %+v\nthe WAL to\n %+v", label, again, fromWAL)
			}
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

// TestFormat3SnapshotRewritesToSameBytes: the snapshot a store cuts after
// opening testdata/binwal, or testdata/format3.snap itself, under the
// fixtures' segment count is testdata/format3.snap byte for byte.
func TestFormat3SnapshotRewritesToSameBytes(t *testing.T) {
	want := mustRead(t, format3Path)
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
			t.Fatalf("%s: the snapshot is %d bytes that differ from %s's %d", label, len(got), filepath.Base(format3Path), len(want))
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
