package durable

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/core"
)

func mustRead(tb testing.TB, path string) []byte {
	tb.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// readFormat1 returns testdata/format1.snap, which the format-1 (JSON)
// snapshot writer wrote when a 2-segment store that had run
// driveRandom(4, 240) closed gracefully.
func readFormat1(tb testing.TB) []byte {
	tb.Helper()
	data := mustRead(tb, filepath.Join("testdata", "format1.snap"))
	if len(data) == 0 || data[0] != '{' {
		tb.Fatal("testdata/format1.snap is not a format-1 snapshot")
	}
	return data
}

// snapDir returns a fresh data directory whose only file is pool.snap
// holding data.
func snapDir(tb testing.TB, data []byte) string {
	tb.Helper()
	dir := tb.TempDir()
	if err := os.WriteFile(filepath.Join(dir, snapName), data, 0o644); err != nil {
		tb.Fatal(err)
	}
	return dir
}

// TestSnapshotRoundTripsEveryField: every task and answer field the
// snapshot carries — the optional ones, negative ints and a negative-zero
// float included — comes back from it exactly, under the layout that wrote
// it and under another.
func TestSnapshotRoundTripsEveryField(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir, Options{Fsync: FsyncNever, Segments: 2})
	mustAdd(t, s, &core.Task{ID: 1, Kind: core.FillIn, Question: "name?", Difficulty: 0.25, GroundTruth: -1, GroundTruthText: "Ada"})
	mustAdd(t, s, &core.Task{ID: 2, Kind: core.Rating, Question: "stars?", GroundTruth: -1, GroundTruthScore: 4.5})
	mustAdd(t, s, &core.Task{ID: 3, Kind: core.MultiChoice, Question: "which?", Options: []string{"a", "b", "c"}, Golden: true, GroundTruth: 2})
	negZero := math.Copysign(0, -1)
	for _, a := range []core.Answer{
		{Task: 1, Worker: "w1", Option: -1, Text: "Ada", Submitted: 1.5, Latency: 0.25},
		{Task: 2, Worker: "w2", Option: -1, Score: 3.5, Latency: negZero},
		{Task: 3, Worker: "w1", Option: 1},
		{Task: 3, Worker: "w1", Option: 2},
	} {
		if err := answer(s, a, nil); err != nil {
			t.Fatal(err)
		}
	}
	mustLease(t, s, 2, "w3", time.Unix(0, -5))
	mustClose(t, s, 3)
	want := imageOf(s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for _, segments := range []int{2, 1} {
		s, info := mustOpen(t, snapDir(t, mustRead(t, filepath.Join(dir, snapName))), Options{Fsync: FsyncNever, Segments: segments})
		got := imageOf(s)
		s.Crash()
		if !info.SnapshotLoaded || !reflect.DeepEqual(got, want) {
			t.Fatalf("segments=%d: snapshot round trip\n got %+v\nwant %+v", segments, got, want)
		}
		if bits := math.Float64bits(got.Answers[2][0].Latency); bits != math.Float64bits(negZero) {
			t.Fatalf("segments=%d: a negative-zero latency came back as bits %x", segments, bits)
		}
	}
}

// TestSnapshotDamageFailsOpen: unlike a WAL tail, a snapshot is
// all-or-nothing. Cut at any section boundary, with one byte flipped in
// any section, or from a future format, it fails Open — under the layout
// that wrote it and under another — and never restores the part before
// the damage.
func TestSnapshotDamageFailsOpen(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir, Options{Fsync: FsyncNever, Segments: 2})
	driveScript(t, s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	data := mustRead(t, filepath.Join(dir, snapName))
	// Section boundaries: the file header, then the end of every frame.
	bounds := []int{0, snapHeader}
	for off := snapHeader; off < len(data); {
		_, rest, ok := splitFrame(data[off:], math.MaxUint32)
		if !ok {
			t.Fatalf("the frame at byte %d does not verify", off)
		}
		off = len(data) - len(rest)
		bounds = append(bounds, off)
	}
	if len(bounds) != 5 {
		t.Fatalf("%d frames, want the cross-task section and 2 shard sections", len(bounds)-2)
	}

	damaged := map[string][]byte{}
	for _, b := range bounds[:len(bounds)-1] {
		damaged[fmt.Sprintf("cut at %d", b)] = data[:b]
	}
	for i := 0; i+1 < len(bounds); i++ {
		for _, at := range []int{bounds[i], (bounds[i] + bounds[i+1]) / 2, bounds[i+1] - 1} {
			flipped := slices.Clone(data)
			flipped[at] ^= 0x20
			damaged[fmt.Sprintf("byte %d flipped", at)] = flipped
		}
	}
	future := slices.Clone(data)
	binary.LittleEndian.PutUint16(future[len(snapMagic):], snapFormat+1)
	damaged["future format"] = future
	damaged["trailing byte"] = append(slices.Clone(data), 0)

	for label, bad := range damaged {
		for _, segments := range []int{2, 3} {
			s, _, err := Open(snapDir(t, bad), Options{Fsync: FsyncNever, Segments: segments})
			if err == nil {
				s.Crash()
				t.Fatalf("%s, segments=%d: Open restored a damaged snapshot", label, segments)
			}
		}
	}
}

// TestSnapshotCountsBoundedByInput: a section whose checksum verifies but
// whose counts or lengths claim more than the bytes behind them fails
// without allocating for the claim.
func TestSnapshotCountsBoundedByInput(t *testing.T) {
	cat := func(parts ...[]byte) []byte { return slices.Concat(parts...) }
	uv := func(x uint64) []byte { return binary.AppendUvarint(nil, x) }
	v := func(x int64) []byte { return binary.AppendVarint(nil, x) }
	u32 := func(x uint32) []byte { return binary.LittleEndian.AppendUint32(nil, x) }
	claim := uv(1 << 20)
	// task is a one-task section with no workers whose record is rec.
	task := func(rec []byte) []byte { return cat(uv(0), uv(1), v(1), u32(uint32(len(rec))), rec) }
	fillIn := cat(v(int64(core.FillIn)), uv(0), uv(0), []byte{0}, v(-1))
	sections := map[string][]byte{
		"workers":       cat(claim, []byte("w")),
		"worker name":   cat(uv(1), claim, []byte("w")),
		"tasks":         cat(uv(0), claim, []byte{0}),
		"record length": cat(uv(0), uv(1), v(1), u32(1<<30), []byte{0}),
		"question":      task(cat(v(int64(core.FillIn)), claim, []byte("q"))),
		"options":       task(cat(v(int64(core.FillIn)), uv(0), claim, []byte("o"))),
		"answers":       task(cat(fillIn, claim, []byte{0, 0, 0}, uv(0))),
		"leases":        task(cat(fillIn, uv(0), claim, []byte{0, 0})),
	}
	cross, err := json.Marshal(&snapCross{LastSeq: 1, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	head := appendFrame(binary.LittleEndian.AppendUint16([]byte(snapMagic), snapFormat), cross)
	for label, section := range sections {
		data := appendFrame(slices.Clone(head), section)
		s := &Store{repScreen: make(map[string]core.ScreenTally)}
		pools := []*core.Pool{core.NewPool()}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := restoreSnapshot(s, data, pools)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("%s: a count past the end of the input restored", label)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 256<<10 {
			t.Fatalf("%s: rejecting a %d-byte snapshot allocated %d bytes", label, len(data), grew)
		}
	}
}

// TestSnapshotDirSyncFailureKeepsWAL: when the directory fsync after the
// rename fails, the new snapshot's directory entry may not survive a power
// loss, so the WAL must not be truncated behind it. Snapshot reports and
// counts the error, every segment keeps its records, and a restart opens
// to the same state.
func TestSnapshotDirSyncFailureKeepsWAL(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Fsync: FsyncNever, Segments: 2}
	s, _ := mustOpen(t, dir, opts)
	driveScript(t, s)
	want := imageOf(s)
	walSizes := func() []int64 {
		var sizes []int64
		for i := 0; i < opts.Segments; i++ {
			fi, err := os.Stat(filepath.Join(dir, segWALName(i)))
			if err != nil {
				t.Fatal(err)
			}
			sizes = append(sizes, fi.Size())
		}
		return sizes
	}
	before := walSizes()

	injected := errors.New("injected directory fsync failure")
	orig := syncDir
	syncDir = func(string) error { return injected }
	err := s.Snapshot()
	syncDir = orig
	if !errors.Is(err, injected) {
		t.Fatalf("Snapshot = %v, want the directory fsync failure", err)
	}
	if n := s.snapErrs.Value(); n != 1 {
		t.Fatalf("%d snapshot errors counted, want 1", n)
	}
	if after := walSizes(); !reflect.DeepEqual(after, before) {
		t.Fatalf("WAL segments are %v bytes after the failed snapshot, were %v", after, before)
	}
	s.Crash()

	s2, info := mustOpen(t, dir, opts)
	defer s2.Close()
	if !info.SnapshotLoaded || info.Replayed != 0 || info.Skipped == 0 {
		t.Fatalf("recovery %+v, want the published snapshot with the whole log skipped", info)
	}
	if got := imageOf(s2); !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered state diverges\n got %+v\nwant %+v", got, want)
	}
}

// restoreSnapshot loads a snapshot into s and restores it into pools, as
// Open does with no WAL behind it.
func restoreSnapshot(s *Store, data []byte, pools []*core.Pool) error {
	restore, err := s.loadSnapshot(data, len(pools))
	if err != nil {
		return err
	}
	return inParallel(len(pools), func(si int) error { return restore(pools[si], si, &shardCounts{}) })
}

// FuzzSnapshotDecode feeds arbitrary bytes to the snapshot decoder,
// seeded with testdata/format1.snap, the format-2 snapshots with whole and
// fractional money and testdata/format3.snap. Every input must fail with
// an error — errJSONEra when it starts with '{', as the format-1 seed does
// — or restore pools whose every task sits in the shard that owns it; none
// may panic.
func FuzzSnapshotDecode(f *testing.F) {
	f.Add(readFormat1(f))
	for _, path := range []string{format2UnitsPath, format2FracPath, format3Path} {
		f.Add(mustRead(f, path))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, n := range []int{1, 2, 3} {
			s := &Store{repScreen: make(map[string]core.ScreenTally)}
			pools := make([]*core.Pool, n)
			for i := range pools {
				pools[i] = core.NewPool()
			}
			if err := restoreSnapshot(s, data, pools); err != nil {
				if legacyJSON(data) != errors.Is(err, errJSONEra) {
					t.Fatalf("restoring %d bytes (JSON: %v) failed with %v", len(data), legacyJSON(data), err)
				}
				continue
			}
			for si, p := range pools {
				for _, id := range p.TaskIDs() {
					if core.ShardIndex(id, n) != si {
						t.Fatalf("task %d restored into shard %d of %d", id, si, n)
					}
				}
			}
		}
	})
}
