package durable

import (
	"bytes"
	"encoding/binary"
	"errors"
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

// recordSamples returns one record of every kind this build writes, each
// with every field its record carries set — optional floats and strings, a
// negative-zero float, negative integers, golden grades both ways, amounts
// of one and several bytes — and sequence numbers from 1 to past 32 bits.
func recordSamples() []Record {
	yes, no := true, false
	negZero := math.Copysign(0, -1)
	recs := []Record{
		{Mut: core.Mutation{Kind: core.MutAddTask, Task: &core.Task{
			ID: 7, Kind: core.FillIn, Question: "name?", Options: []string{"a", "b"}, Difficulty: 0.25,
			Golden: true, GroundTruth: -1, GroundTruthText: "Ada", GroundTruthScore: 4.5,
		}}},
		{Mut: core.Mutation{Kind: core.MutAnswers, Golden: []*bool{&yes}, Answers: []core.Answer{
			{Task: 7, Worker: "w1", Option: -1, Text: "Ada", Score: 3.5, Submitted: 1.5, Latency: negZero},
		}}},
		{Mut: core.Mutation{Kind: core.MutAnswers, Batch: true, Golden: []*bool{nil, &no}, Answers: []core.Answer{
			{Task: 1, Worker: "w1", Option: 1},
			{Task: -2, Worker: "w2", Option: 0, Submitted: 2},
		}}},
		{Mut: core.Mutation{Kind: core.MutClose, ID: 3}},
		{Mut: core.Mutation{Kind: core.MutLease, Leases: []core.Lease{{Task: 2, Worker: "lw", Deadline: time.Unix(0, -5)}}}},
		{Mut: core.Mutation{Kind: core.MutExpire, Leases: []core.Lease{
			{Task: 2, Worker: "lw", Deadline: time.Unix(0, 100)}, {Task: 9, Worker: "x", Deadline: time.Unix(0, 1<<62)},
		}}},
		{Type: EvCqlSessionCreated, Session: "Sess"},
		{Type: EvCqlSessionClosed, Session: "Sess"},
		{Type: EvCqlPrepared, Session: "Sess", Name: "p", Src: "SELECT 1"},
		{Type: EvCqlQueryStarted, Session: "Sess", Query: "q1", Src: "SELECT id FROM t WHERE CROWDFILTER('dog?', kind)"},
		{Type: EvCqlQueryFinished, Session: "Sess", Query: "q1", Status: "done"},
		{Type: EvCqlQuestionPublished, TaskID: 4, Amount: 1 << 40},
		{Type: EvCqlQuestionRefund, TaskID: 4, Amount: 1},
		{Type: EvCqlQuestionClosed, TaskID: -4, Amount: 0},
	}
	for i := range recs {
		recs[i].Seq = uint64(i+1) << (2 * i)
	}
	return recs
}

// TestWALRecordsRoundTripEveryField: every record kind this build writes
// has a binary record, and every field a record carries comes back from it
// exactly.
func TestWALRecordsRoundTripEveryField(t *testing.T) {
	if numTags > '{' {
		t.Fatal("a record tag reaches '{', the first byte of a JSON record")
	}
	samples := recordSamples()
	tags := map[byte]bool{}
	names := map[string]string{} // shared, as walFile.decode shares one per file
	for i := range samples {
		rec := &samples[i]
		payload := appendRecord(nil, rec)
		tags[payload[0]] = true
		var got Record
		if err := decodeRecord(payload, &got, names); err != nil {
			t.Fatalf("tag %d: %v", payload[0], err)
		}
		if !reflect.DeepEqual(&got, rec) {
			t.Fatalf("tag %d: round trip\n got %+v\nwant %+v", payload[0], got, *rec)
		}
		for cut := range payload {
			if decodeRecord(payload[:cut], &got, nil) == nil {
				t.Fatalf("tag %d: the record's first %d of %d bytes decode", payload[0], cut, len(payload))
			}
		}
		if decodeRecord(append(payload, 0), &got, nil) == nil {
			t.Fatalf("tag %d: a record with a trailing byte decodes", payload[0])
		}
	}
	for tag := byte(1); tag < numTags; tag++ {
		if tags[tag] == retiredTags[tag] {
			t.Fatalf("tag %d: retired %v, and the samples write it %v", tag, retiredTags[tag], tags[tag])
		}
	}
}

// FuzzWALRecordDecode feeds arbitrary payloads to the binary record
// decoder, seeded with one record of every kind this build writes, one
// JSON record and every record of testdata/binwal, testdata/unitwal and
// testdata/fracwal — the retired tags, with whole and fractional money. No
// input may panic, none starting with '{' may decode, and a record that
// decodes must survive a round trip unless it is a retired budget record,
// which has no layout this build writes: encoding the record and decoding
// that gives the record back.
func FuzzWALRecordDecode(f *testing.F) {
	samples := recordSamples()
	for i := range samples {
		f.Add(appendRecord(nil, &samples[i]))
	}
	f.Add([]byte(`{"seq":2,"type":"answer_recorded","worker":"w1","answer":{"task":7,"worker":"w1","option":-1,"text":"Ada"},"cost":0.1,"golden":true}`))
	for _, dir := range []string{binWALDir, unitWALDir, fracWALDir} {
		for _, payload := range walPayloads(f, dir) {
			f.Add(payload)
		}
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		var rec Record
		if err := decodeRecord(payload, &rec, nil); err != nil {
			return
		}
		if legacyJSON(payload) {
			t.Fatalf("a payload starting with '{' decoded as a binary record: %+v", rec)
		}
		if rec.Type == EvBudgetCharged || rec.Type == EvBudgetRefunded {
			return
		}
		again := roundTrip(t, &rec)
		// A NaN is not DeepEqual to itself, so byte-equal re-encodings
		// count as the same record too.
		if !reflect.DeepEqual(again, rec) && !bytes.Equal(appendRecord(nil, &again), appendRecord(nil, &rec)) {
			t.Fatalf("round trip\n got %+v\nwant %+v", again, rec)
		}
	})
}

// FuzzWALFrames writes arbitrary bytes as a WAL segment file and decodes
// it as Open does, seeded with every segment file of testdata/binwal,
// testdata/unitwal, testdata/fracwal and testdata/jsonwal, whole and cut
// short, and binwal's first file with a record of an unknown tag behind
// it. No input may panic. A file refused with errJSONEra holds a
// checksummed frame that starts with '{', one refused with
// errFractionalMoney a checksummed frame that decodes to that error, and
// one refused with errUnknownRecord a checksummed frame under a tag this
// build does not know; any other file decodes to a prefix that ends on the
// boundary of exactly as many frames as it decoded records, and that
// prefix and the tail Open would cut make up the whole file. The frame the
// cut starts at is never one of those three kinds: it refuses the file
// instead.
func FuzzWALFrames(f *testing.F) {
	for _, dir := range []string{binWALDir, unitWALDir, fracWALDir, jsonWALDir} {
		files, err := findWALs(dir)
		if err != nil {
			f.Fatal(err)
		}
		for _, file := range files {
			data := mustRead(f, file.path)
			f.Add(data)
			f.Add(data[:len(data)/2])
			f.Add(data[:len(data)-1])
		}
	}
	f.Add(appendFrame(mustRead(f, filepath.Join(binWALDir, walName)), []byte{numTags, 1}))
	f.Fuzz(func(t *testing.T, data []byte) {
		file := &walFile{path: filepath.Join(t.TempDir(), walName)}
		if err := os.WriteFile(file.path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		file.decode(1, 0)
		// The checksummed frames the file starts with, and where each ends.
		var frames [][]byte
		ends := []int64{0}
		for rest := data; ; {
			payload, next, ok := splitFrame(rest, maxRecordBytes)
			if !ok {
				break
			}
			frames, rest = append(frames, payload), next
			ends = append(ends, int64(len(data)-len(rest)))
		}
		fractional := func(p []byte) bool { return errors.Is(decodeRecord(p, &Record{}, nil), errFractionalMoney) }
		unknown := func(p []byte) bool { return errors.Is(decodeRecord(p, &Record{}, nil), errUnknownRecord) }
		switch {
		case file.err == nil:
		case errors.Is(file.err, errJSONEra) && slices.ContainsFunc(frames, legacyJSON),
			errors.Is(file.err, errFractionalMoney) && slices.ContainsFunc(frames, fractional),
			errors.Is(file.err, errUnknownRecord) && slices.ContainsFunc(frames, unknown):
			return
		default:
			t.Fatalf("decode failed with %v, want errJSONEra over a frame that starts with '{', "+
				"errFractionalMoney over one with fractional money or errUnknownRecord over one with an unknown tag", file.err)
		}
		n := len(file.index)
		if n > len(frames) || file.validBytes != ends[n] || file.validBytes+file.torn != int64(len(data)) {
			t.Fatalf("%d records in %d valid and %d torn bytes of %d; the file starts with %d frames",
				n, file.validBytes, file.torn, len(data), len(frames))
		}
		if n < len(frames) && (legacyJSON(frames[n]) || fractional(frames[n]) || unknown(frames[n])) {
			t.Fatalf("frame %d was cut as undecodable; it must refuse the file", n)
		}
	})
}

// roundTrip encodes rec as a binary record and decodes it again.
func roundTrip(t *testing.T, rec *Record) Record {
	t.Helper()
	var again Record
	if err := decodeRecord(appendRecord(nil, rec), &again, nil); err != nil {
		t.Fatalf("re-encoded %+v does not decode: %v", *rec, err)
	}
	return again
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
			t.Fatalf("%s: a count past the end of the record decoded (%d records, err %v)", label, len(log[walName]), err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 256<<10 {
			t.Fatalf("%s: rejecting a %d-byte record allocated %d bytes", label, len(payload), grew)
		}
	}
}
