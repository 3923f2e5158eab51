package durable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
)

// Fixtures of the retention reader (retention.go), both written by the
// store of commit 41542c1, whose builds stored money as float64:
//
//   - testdata/unitwal and testdata/format2-units.snap hold the WAL and the
//     format-2 snapshot of that commit's driveRandom(11, 600) on a
//     2-segment store, with every amount it journals changed to a whole
//     number of units: each answer cost 1, budget records charged 2 and
//     refunded 1, and question refunds and closes 1. They open to
//     unitWALDigest, the state and spend that commit recovered from them.
//   - testdata/fracwal and testdata/format2-frac.snap hold the same history
//     with the fractional costs that driveRandom drew then (0.1, 0.7, 1).
//     Open refuses them with errFractionalMoney.
const (
	unitWALDir       = "testdata/unitwal"
	format2UnitsPath = "testdata/format2-units.snap"
	unitWALDigest    = "0437d6b56dfe829e33cdb479087aaf4db257d9c7b334b39ffc6a4b2c7102584a"
	fracWALDir       = "testdata/fracwal"
	format2FracPath  = "testdata/format2-frac.snap"
)

// retiredTags are the tags this build reads but never writes.
var retiredTags = map[byte]bool{
	tagAnswerF64: true, tagAnswerBatchF64: true, tagBudgetCharged: true, tagBudgetRefunded: true,
	tagCqlPublishedF64: true, tagCqlRefundF64: true, tagCqlClosedF64: true,
}

// retiredRecord builds a record payload under a retired tag: the tag, seq,
// the fields in body, then the f64 amount.
func retiredRecord(tag byte, seq uint64, body []byte, amount float64) []byte {
	b := binary.AppendUvarint([]byte{tag}, seq)
	return appendFloat(append(b, body...), amount)
}

// writeWAL writes payloads as the single WAL file of a fresh directory.
func writeWAL(t *testing.T, payloads ...[]byte) string {
	t.Helper()
	dir := t.TempDir()
	var log []byte
	for _, p := range payloads {
		log = appendFrame(log, p)
	}
	if err := os.WriteFile(filepath.Join(dir, walName), log, 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestFractionalMoneyDirectoryRefused: a directory holding the fractional
// fixtures — the WAL, the format-2 snapshot, or both — fails Open with
// errFractionalMoney under any segment count, and Open writes nothing to
// it: no tail cut, no snapshot published, no WAL file created.
func TestFractionalMoneyDirectoryRefused(t *testing.T) {
	frac := mustRead(t, format2FracPath)
	shapes := []struct {
		name string
		snap []byte // nil: no pool.snap
		wal  bool   // testdata/fracwal's files
	}{
		{"WAL", nil, true},
		{"Format2Snapshot", frac, false},
		{"Format2SnapshotAndWAL", frac, true},
	}
	for _, shape := range shapes {
		t.Run(shape.name, func(t *testing.T) {
			for _, segments := range []int{1, 2, 3} {
				dir := t.TempDir()
				if shape.snap != nil {
					dir = snapDir(t, shape.snap)
				}
				if shape.wal {
					copyDir(t, fracWALDir, dir)
				}
				assertRefused(t, fmt.Sprintf("segments=%d", segments), dir,
					Options{Fsync: FsyncNever, Segments: segments}, errFractionalMoney)
			}
		})
	}
}

// TestRetiredRecordsRefuseFractionalMoney: each retired record whose money
// is not whole units — a fraction, a negative, NaN, an amount past int64,
// an answer cost other than the answer count — decodes to
// errFractionalMoney, and a WAL that holds one between whole records is
// refused and left as it was, not cut there.
func TestRetiredRecordsRefuseFractionalMoney(t *testing.T) {
	add := appendRecord(nil, &Record{Seq: 1, Mut: core.Mutation{Kind: core.MutAddTask, Task: choiceTask(1, false, 0)}})
	a1 := appendWALAnswer(nil, &core.Answer{Task: 1, Worker: "w1", Option: 1}, nil)
	a2 := appendWALAnswer(nil, &core.Answer{Task: 1, Worker: "w2", Option: 0}, nil)
	batch := append(binary.AppendUvarint(nil, 2), append(a1, a2...)...)
	task := binary.AppendVarint(nil, 1)
	after := appendRecord(nil, &Record{Seq: 3, Mut: core.Mutation{Kind: core.MutClose, ID: 1}})
	bad := map[string][]byte{
		"answer costing half a unit":   retiredRecord(tagAnswerF64, 2, a1, 0.5),
		"answer costing two units":     retiredRecord(tagAnswerF64, 2, a1, 2),
		"batch of two costing one":     retiredRecord(tagAnswerBatchF64, 2, batch, 1),
		"fractional charge":            retiredRecord(tagBudgetCharged, 2, nil, 0.7),
		"negative refund":              retiredRecord(tagBudgetRefunded, 2, nil, -1),
		"NaN reservation":              retiredRecord(tagCqlPublishedF64, 2, task, math.NaN()),
		"reservation past int64":       retiredRecord(tagCqlPublishedF64, 2, task, 1<<63),
		"fractional question refund":   retiredRecord(tagCqlRefundF64, 2, task, 0.7),
		"infinite close refund":        retiredRecord(tagCqlClosedF64, 2, task, math.Inf(1)),
		"fractional question at close": retiredRecord(tagCqlClosedF64, 2, task, 1e-300),
	}
	for label, payload := range bad {
		if err := decodeRecord(payload, &Record{}, nil); !errors.Is(err, errFractionalMoney) {
			t.Fatalf("%s: decodes to %v, want errFractionalMoney", label, err)
		}
		assertRefused(t, label, writeWAL(t, add, payload, after), Options{Fsync: FsyncNever}, errFractionalMoney)
	}

	// The same records with whole money open, at one unit per answer.
	good := [][]byte{
		retiredRecord(tagAnswerF64, 2, a1, 1),
		retiredRecord(tagAnswerBatchF64, 3, append(binary.AppendUvarint(nil, 1), a2...), 1),
		retiredRecord(tagCqlPublishedF64, 4, task, 3),
		retiredRecord(tagCqlRefundF64, 5, task, 2),
	}
	s, info := mustOpen(t, writeWAL(t, append([][]byte{add}, good...)...), Options{Fsync: FsyncNever})
	defer s.Crash()
	if info.Answers != 2 || info.BudgetSpent != 3 || info.CQLOpenQuestions != 1 {
		t.Fatalf("recovered %+v, want 2 answers, spend 2 + 3 - 2 and one open question", info)
	}
}

// TestBudgetEventsAdjustSpend: retired budget records move the recovered
// spend in order — a charge adds, a refund subtracts and clamps at zero.
func TestBudgetEventsAdjustSpend(t *testing.T) {
	dir := writeWAL(t,
		retiredRecord(tagBudgetCharged, 1, nil, 10),
		retiredRecord(tagBudgetRefunded, 2, nil, 4),
		retiredRecord(tagBudgetRefunded, 3, nil, 7),
		retiredRecord(tagBudgetCharged, 4, nil, 2),
	)
	s, _ := mustOpen(t, dir, Options{Fsync: FsyncNever})
	defer s.Close()
	if _, spent, _ := state(s); spent != 2 {
		t.Fatalf("recovered spend %d, want 10 - 4, clamped at 0 by the refund of 7, + 2", spent)
	}
}
