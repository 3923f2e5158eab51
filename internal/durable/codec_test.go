package durable

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"repro/internal/core"
)

// recordSamples returns one event of every type with a binary record, each
// with every field its record carries set — optional floats and strings,
// a negative-zero float, negative integers, golden grades both ways — and
// sequence numbers from 1 to past 32 bits.
func recordSamples() []Event {
	yes, no := true, false
	negZero := math.Copysign(0, -1)
	evs := []Event{
		{Type: EvTaskAdded, Task: &TaskRecord{
			ID: 7, Kind: int(core.FillIn), Question: "name?", Options: []string{"a", "b"}, Difficulty: 0.25,
			Golden: true, GroundTruth: -1, GroundTruthText: "Ada", GroundTruthScore: 4.5,
		}},
		{Type: EvAnswerRecorded, Worker: "w1", Cost: 0.1, Golden: &yes, Answer: &AnswerRecord{
			Task: 7, Worker: "w1", Option: -1, Text: "Ada", Score: 3.5, Submitted: 1.5, Latency: negZero,
		}},
		{Type: EvAnswerBatch, Cost: 0.7 + 0.1, Goldens: []*bool{nil, &no}, Answers: []AnswerRecord{
			{Task: 1, Worker: "w1", Option: 1},
			{Task: -2, Worker: "w2", Option: 0, Submitted: 2},
		}},
		{Type: EvTaskClosed, TaskID: 3},
		{Type: EvBudgetCharged, Amount: 0.7},
		{Type: EvBudgetRefunded, Amount: 0.1},
		{Type: EvLeaseIssued, Lease: &LeaseRecord{Task: 2, Worker: "lw", Deadline: -5}},
		{Type: EvLeaseExpired, Leases: []LeaseRecord{{Task: 2, Worker: "lw", Deadline: 100}, {Task: 9, Worker: "x", Deadline: 1 << 62}}},
		{Type: EvCqlSessionCreated, Session: "Sess"},
		{Type: EvCqlSessionClosed, Session: "Sess"},
		{Type: EvCqlPrepared, Session: "Sess", Name: "p", Src: "SELECT 1"},
		{Type: EvCqlQueryStarted, Session: "Sess", Query: "q1", Src: "SELECT id FROM t WHERE CROWDFILTER('dog?', kind)"},
		{Type: EvCqlQueryFinished, Session: "Sess", Query: "q1", Status: "done"},
		{Type: EvCqlQuestionPublished, TaskID: 4, Amount: 3},
		{Type: EvCqlQuestionRefund, TaskID: 4, Amount: 0.7},
		{Type: EvCqlQuestionClosed, TaskID: 4, Amount: 0.1},
	}
	for i := range evs {
		evs[i].Seq = uint64(i+1) << (2 * i)
	}
	return evs
}

// TestWALRecordsRoundTripEveryField: every event type has a record, and
// every field a record carries comes back from it exactly.
func TestWALRecordsRoundTripEveryField(t *testing.T) {
	if numTags > '{' {
		t.Fatal("a record tag reaches '{', the first byte of a JSON record")
	}
	samples := recordSamples()
	tags := map[byte]bool{}
	names := map[string]string{} // shared, as walFile.decode shares one per file
	for i := range samples {
		ev := &samples[i]
		rec := appendEvent(nil, ev)
		tags[rec[0]] = true
		var got Event
		if err := decodeEvent(rec, &got, names); err != nil {
			t.Fatalf("%s: %v", ev.Type, err)
		}
		if !reflect.DeepEqual(&got, ev) {
			t.Fatalf("%s: round trip\n got %+v\nwant %+v", ev.Type, got, *ev)
		}
		for cut := range rec {
			if decodeEvent(rec[:cut], &got, nil) == nil {
				t.Fatalf("%s: the record's first %d of %d bytes decode", ev.Type, cut, len(rec))
			}
		}
		if decodeEvent(append(rec, 0), &got, nil) == nil {
			t.Fatalf("%s: a record with a trailing byte decodes", ev.Type)
		}
	}
	if len(tags) != numTags-1 {
		t.Fatalf("the samples cover %d of %d record tags", len(tags), numTags-1)
	}
}

// FuzzWALRecordDecode feeds arbitrary payloads to the binary record
// decoder, seeded with one record of every type and one JSON record. No
// input may panic, none starting with '{' may decode, and a record that
// decodes must survive a round trip: encoding the event and decoding that
// gives the event back.
func FuzzWALRecordDecode(f *testing.F) {
	samples := recordSamples()
	for i := range samples {
		f.Add(appendEvent(nil, &samples[i]))
	}
	legacy, err := json.Marshal(&samples[1])
	if err != nil {
		f.Fatal(err)
	}
	f.Add(legacy)
	f.Fuzz(func(t *testing.T, payload []byte) {
		var ev Event
		if err := decodeEvent(payload, &ev, nil); err != nil {
			return
		}
		if legacyJSON(payload) {
			t.Fatalf("a payload starting with '{' decoded as a binary record: %+v", ev)
		}
		rec := appendEvent(nil, &ev)
		var again Event
		if err := decodeEvent(rec, &again, nil); err != nil {
			t.Fatalf("re-encoded %+v does not decode: %v", ev, err)
		}
		// A NaN is not DeepEqual to itself, so byte-equal re-encodings
		// count as the same event too.
		if !reflect.DeepEqual(again, ev) && !bytes.Equal(appendEvent(nil, &again), rec) {
			t.Fatalf("round trip\n got %+v\nwant %+v", again, ev)
		}
	})
}

// TestWALRecordCountsBoundedByInput: a checksummed record whose counts or
// lengths claim more than the bytes behind them cuts its file without
// allocating for the claim.
func TestWALRecordCountsBoundedByInput(t *testing.T) {
	cat := func(parts ...[]byte) []byte { return slices.Concat(parts...) }
	uv := func(x uint64) []byte { return binary.AppendUvarint(nil, x) }
	claim := uv(1 << 20)
	head := func(tag byte) []byte { return cat([]byte{tag}, uv(1)) }
	records := map[string][]byte{
		"answers":        cat(head(tagAnswerBatch), claim, []byte{2, 1, 'w', 2, 0}),
		"leases":         cat(head(tagLeaseExpired), claim, []byte{2, 1, 'w', 2}),
		"worker name":    cat(head(tagAnswerRecorded), []byte{2}, claim, []byte("w")),
		"options":        cat(head(tagTaskAdded), []byte{2, 0}, uv(0), claim, []byte("o")),
		"session source": cat(head(tagCqlPrepared), uv(1), []byte("s"), uv(1), []byte("p"), claim, []byte("SELECT")),
	}
	for label, payload := range records {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, walName), appendFrame(nil, payload), 0o644); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		log, err := ReadLog(dir)
		runtime.ReadMemStats(&after)
		if err == nil || len(log[walName]) != 0 {
			t.Fatalf("%s: a count past the end of the record decoded (%d events, err %v)", label, len(log[walName]), err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 256<<10 {
			t.Fatalf("%s: rejecting a %d-byte record allocated %d bytes", label, len(payload), grew)
		}
	}
}
