package durable

import (
	"encoding/binary"
	"errors"
	"math"
	"time"

	"repro/internal/core"
)

// The binary codec of the data directory: the field primitives, task and
// answer fields, and WAL records. Format-2 snapshot sections (snapshot.go)
// and WAL records are both built from it.
//
// A WAL record's payload is one tag byte naming the record's kind, the
// uvarint sequence number, then the kind's fields. A pool mutation's kind
// is its core.MutationKind, with a batch of answers apart:
//
//	task_added      MutAddTask        varint ID | task
//	answer_recorded MutAnswers        answer
//	answer_batch    MutAnswers, Batch uvarint answers, each an answer
//	task_closed     MutClose          varint task
//	lease_issued    MutLease          lease
//	lease_expired   MutExpire         uvarint leases, each a lease
//
// and a cross-task record's kind is its Record.Type:
//
//	cql_session_created, _closed  string session
//	cql_prepared                  string session | string name | string source
//	cql_query_started             string session | string query | string source
//	cql_query_finished            string session | string query | string status
//	cql_question_published, _refund, _closed
//	                              varint task | uvarint units
//
// where
//
//	task:   varint kind | string question | uvarint options, strings | byte flags |
//	        [f64 difficulty] | varint ground truth | [string truth text] | [f64 truth score]
//	answer: varint task | string worker | varint option | byte flags |
//	        [string text] [f64 score] [f64 submitted] [f64 latency]
//	lease:  varint task | string worker | varint deadline (Unix ns)
//
// Money is whole units: an answer record adds its answer count to the
// spend, and question amounts are uvarint units. A string is a uvarint
// length and its bytes. An f64 is a float's raw IEEE bits, little
// endian; a bracketed one is present only when its flag bit is set, and a
// float equal to +0.0 is left out. An answer's flags add two bits to the
// snapshot's: answerGolden when the answer was graded against a golden
// task, and answerCorrect for the grade.
//
// Builds up to 41542c1 wrote money as f64s, under the retired tags below,
// which this build reads (retention.go) but never writes. Open refuses one
// whose amount is not whole units with errFractionalMoney rather than
// cutting it as undecodable.
//
// No tag is '{': a payload that starts with it is a JSON record, which
// builds before binary records wrote. Open refuses such a file with
// errJSONEra rather than cutting it as undecodable, which would delete the
// old log. For the same reason it refuses a record whose tag is numTags
// or more, which a newer build wrote, with errUnknownRecord.

// Record tags. Tag 0 is unused, so a zeroed payload does not decode. A
// retired tag is read, never written, and goes with the retention reader.
const (
	tagTaskAdded      = 1 + iota
	tagAnswerF64      // retired: answer | f64 cost
	tagAnswerBatchF64 // retired: uvarint answers, each an answer | f64 cost
	tagTaskClosed
	tagBudgetCharged  // retired: f64 amount
	tagBudgetRefunded // retired: f64 amount
	tagLeaseIssued
	tagLeaseExpired
	tagCqlSessionCreated
	tagCqlSessionClosed
	tagCqlPrepared
	tagCqlQueryStarted
	tagCqlQueryFinished
	tagCqlPublishedF64 // retired: varint task | f64 amount
	tagCqlRefundF64    // retired: varint task | f64 amount
	tagCqlClosedF64    // retired: varint task | f64 amount
	tagAnswerRecorded
	tagAnswerBatch
	tagCqlQuestionPublished
	tagCqlQuestionRefund
	tagCqlQuestionClosed
	numTags
)

// questionTags is the tag of each CrowdQL question record type.
var questionTags = map[string]byte{
	EvCqlQuestionPublished: tagCqlQuestionPublished,
	EvCqlQuestionRefund:    tagCqlQuestionRefund,
	EvCqlQuestionClosed:    tagCqlQuestionClosed,
}

// crossTypes names the cross-task record type of each tag that has one.
var crossTypes = [numTags]string{
	tagBudgetCharged:        EvBudgetCharged,
	tagBudgetRefunded:       EvBudgetRefunded,
	tagCqlPublishedF64:      EvCqlQuestionPublished,
	tagCqlRefundF64:         EvCqlQuestionRefund,
	tagCqlClosedF64:         EvCqlQuestionClosed,
	tagCqlSessionCreated:    EvCqlSessionCreated,
	tagCqlSessionClosed:     EvCqlSessionClosed,
	tagCqlPrepared:          EvCqlPrepared,
	tagCqlQueryStarted:      EvCqlQueryStarted,
	tagCqlQueryFinished:     EvCqlQueryFinished,
	tagCqlQuestionPublished: EvCqlQuestionPublished,
	tagCqlQuestionRefund:    EvCqlQuestionRefund,
	tagCqlQuestionClosed:    EvCqlQuestionClosed,
}

// Task flags.
const (
	taskGolden = 1 << iota
	taskClosed // snapshot records only
	taskDifficulty
	taskTruthText
	taskTruthScore
	snapTaskFlags = 1<<iota - 1
	walTaskFlags  = snapTaskFlags &^ taskClosed
)

// Answer flags.
const (
	answerText = 1 << iota
	answerScore
	answerSubmitted
	answerLatency
	answerGolden    // WAL records only
	answerCorrect   // WAL records only
	walAnswerFlags  = 1<<iota - 1
	snapAnswerFlags = walAnswerFlags &^ (answerGolden | answerCorrect)
)

// appendRecord appends rec as one WAL record payload.
func appendRecord(dst []byte, rec *Record) []byte {
	tag, body := appendRecordBody(nil, rec)
	return append(binary.AppendUvarint(append(dst, tag), rec.Seq), body...)
}

// appendRecordBody appends the fields of rec's record, the part after the
// tag and sequence number, and returns the record's tag with them. Every
// record the store builds has a layout, so a miss is a programming error.
func appendRecordBody(b []byte, rec *Record) (byte, []byte) {
	switch m := &rec.Mut; m.Kind {
	case core.MutAddTask:
		return tagTaskAdded, appendTask(binary.AppendVarint(b, int64(m.Task.ID)), m.Task, 0)
	case core.MutAnswers:
		tag := byte(tagAnswerRecorded)
		if m.Batch {
			tag, b = tagAnswerBatch, binary.AppendUvarint(b, uint64(len(m.Answers)))
		}
		for i := range m.Answers {
			var golden *bool
			if m.Golden != nil {
				golden = m.Golden[i]
			}
			b = appendWALAnswer(b, &m.Answers[i], golden)
		}
		return tag, b
	case core.MutClose:
		return tagTaskClosed, binary.AppendVarint(b, int64(m.ID))
	case core.MutLease:
		return tagLeaseIssued, appendLease(b, &m.Leases[0])
	case core.MutExpire:
		b = binary.AppendUvarint(b, uint64(len(m.Leases)))
		for i := range m.Leases {
			b = appendLease(b, &m.Leases[i])
		}
		return tagLeaseExpired, b
	}
	switch rec.Type {
	case EvCqlSessionCreated:
		return tagCqlSessionCreated, appendString(b, rec.Session)
	case EvCqlSessionClosed:
		return tagCqlSessionClosed, appendString(b, rec.Session)
	case EvCqlPrepared:
		return tagCqlPrepared, appendString(appendString(appendString(b, rec.Session), rec.Name), rec.Src)
	case EvCqlQueryStarted:
		return tagCqlQueryStarted, appendString(appendString(appendString(b, rec.Session), rec.Query), rec.Src)
	case EvCqlQueryFinished:
		return tagCqlQueryFinished, appendString(appendString(appendString(b, rec.Session), rec.Query), rec.Status)
	case EvCqlQuestionPublished, EvCqlQuestionRefund, EvCqlQuestionClosed:
		return questionTags[rec.Type], binary.AppendUvarint(binary.AppendVarint(b, int64(rec.TaskID)), uint64(rec.Amount))
	}
	panic("durable: no WAL record layout for record type " + rec.Type)
}

// decodeRecord decodes one binary WAL record payload into rec, replacing
// whatever rec held but reusing its answer, golden and lease slices (a
// task is always new: the pool keeps it). Every field of the record's
// type must parse and the payload must end with the last one; a record
// that does and holds money in a retired tag that is not whole units is
// errFractionalMoney, and one whose tag this build does not know is
// errUnknownRecord, not malformed. names, when not nil, interns worker
// names and task options across the records decoded with it (see
// reader.name).
func decodeRecord(payload []byte, rec *Record, names map[string]string) error {
	r := reader{b: payload, names: names}
	tag := r.byte()
	if tag == 0 {
		return errMalformed
	}
	if tag >= numTags {
		return errUnknownRecord
	}
	answers, golden, leases := rec.Mut.Answers, rec.Mut.Golden, rec.Mut.Leases
	*rec = Record{Seq: r.uvarint(), Type: crossTypes[tag]}
	m := &rec.Mut
	whole := true // a retired tag's money is whole units
	switch tag {
	case tagTaskAdded:
		m.Kind, m.Task = core.MutAddTask, &core.Task{ID: core.TaskID(r.varint())}
		if r.task(m.Task)&^walTaskFlags != 0 {
			r.fail()
		}
	case tagAnswerRecorded, tagAnswerBatch, tagAnswerF64, tagAnswerBatchF64:
		m.Kind, m.Batch = core.MutAnswers, tag == tagAnswerBatch || tag == tagAnswerBatchF64
		n := 1
		if m.Batch {
			n = r.count(4) // task, worker, option and flags take a byte each at least
		}
		m.Answers = resize(answers, n)
		for i := range m.Answers {
			if g := r.walAnswer(&m.Answers[i]); g != nil {
				if m.Golden == nil {
					m.Golden = resize(golden, n)
				}
				m.Golden[i] = g
			}
		}
		if tag == tagAnswerF64 || tag == tagAnswerBatchF64 {
			whole = r.float() == float64(n) // an answer cost one unit
		}
	case tagTaskClosed:
		m.Kind, m.ID = core.MutClose, core.TaskID(r.varint())
	case tagLeaseIssued:
		m.Kind, m.Leases = core.MutLease, resize(leases, 1)
		r.lease(&m.Leases[0])
	case tagLeaseExpired:
		m.Kind, m.Leases = core.MutExpire, resize(leases, r.count(3)) // task, worker and deadline take a byte each at least
		for i := range m.Leases {
			r.lease(&m.Leases[i])
		}
	case tagBudgetCharged, tagBudgetRefunded:
		rec.Amount, whole = floatUnits(r.float())
	case tagCqlSessionCreated, tagCqlSessionClosed:
		rec.Session = r.str()
	case tagCqlPrepared:
		rec.Session, rec.Name, rec.Src = r.str(), r.str(), r.str()
	case tagCqlQueryStarted:
		rec.Session, rec.Query, rec.Src = r.str(), r.str(), r.str()
	case tagCqlQueryFinished:
		rec.Session, rec.Query, rec.Status = r.str(), r.str(), r.str()
	case tagCqlQuestionPublished, tagCqlQuestionRefund, tagCqlQuestionClosed:
		rec.TaskID = core.TaskID(r.varint())
		if rec.Amount = int64(r.uvarint()); rec.Amount < 0 {
			r.fail()
		}
	case tagCqlPublishedF64, tagCqlRefundF64, tagCqlClosedF64:
		rec.TaskID = core.TaskID(r.varint())
		rec.Amount, whole = floatUnits(r.float())
	}
	if len(r.b) != 0 {
		r.fail() // bytes after the record's last field
	}
	if r.err == nil && !whole {
		return errFractionalMoney
	}
	return r.err
}

// resize returns s's storage, or a new array when it is too small, as a
// slice of n zero elements.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// appendTask appends a task's fields but its ID; flags carries the
// caller's bits (taskClosed) beside the ones the fields imply.
func appendTask(b []byte, t *core.Task, flags byte) []byte {
	flags |= floatFlag(t.Difficulty, taskDifficulty) | floatFlag(t.GroundTruthScore, taskTruthScore)
	if t.Golden {
		flags |= taskGolden
	}
	if t.GroundTruthText != "" {
		flags |= taskTruthText
	}
	b = binary.AppendVarint(b, int64(t.Kind))
	b = appendString(b, t.Question)
	b = binary.AppendUvarint(b, uint64(len(t.Options)))
	for _, o := range t.Options {
		b = appendString(b, o)
	}
	b = append(b, flags)
	b = appendOptFloat(b, t.Difficulty)
	b = binary.AppendVarint(b, int64(t.GroundTruth))
	if flags&taskTruthText != 0 {
		b = appendString(b, t.GroundTruthText)
	}
	return appendOptFloat(b, t.GroundTruthScore)
}

// task reads a task's fields into t (all but its ID) and returns the flags
// byte for the caller to check. Option strings are names (reader.name):
// the tasks of one file or section share one copy of each.
func (r *reader) task(t *core.Task) byte {
	t.Kind = core.TaskKind(r.varint())
	t.Question = r.str()
	if n := r.count(1); n > 0 {
		t.Options = make([]string, n)
		for i := range t.Options {
			t.Options[i] = r.name()
		}
	}
	flags := r.byte()
	t.Golden = flags&taskGolden != 0
	t.Difficulty = r.optFloat(flags & taskDifficulty)
	t.GroundTruth = int(r.varint())
	if flags&taskTruthText != 0 {
		t.GroundTruthText = r.str()
	}
	t.GroundTruthScore = r.optFloat(flags & taskTruthScore)
	return flags
}

// appendAnswer appends an answer's fields from its option on; flags
// carries the caller's bits beside the ones the fields imply.
func appendAnswer(b []byte, a *core.Answer, flags byte) []byte {
	flags |= floatFlag(a.Score, answerScore) | floatFlag(a.Submitted, answerSubmitted) | floatFlag(a.Latency, answerLatency)
	if a.Text != "" {
		flags |= answerText
	}
	b = binary.AppendVarint(b, int64(a.Option))
	b = append(b, flags)
	if flags&answerText != 0 {
		b = appendString(b, a.Text)
	}
	b = appendOptFloat(b, a.Score)
	b = appendOptFloat(b, a.Submitted)
	return appendOptFloat(b, a.Latency)
}

// answer reads an answer's fields from its option on into a and returns
// the flags byte for the caller to check.
func (r *reader) answer(a *core.Answer) byte {
	a.Option = int(r.varint())
	flags := r.byte()
	if flags&answerText != 0 {
		a.Text = r.str()
	}
	a.Score = r.optFloat(flags & answerScore)
	a.Submitted = r.optFloat(flags & answerSubmitted)
	a.Latency = r.optFloat(flags & answerLatency)
	return flags
}

// appendWALAnswer appends a WAL record's answer with its golden grade.
func appendWALAnswer(b []byte, a *core.Answer, golden *bool) []byte {
	var flags byte
	if golden != nil {
		flags = answerGolden
		if *golden {
			flags |= answerCorrect
		}
	}
	b = binary.AppendVarint(b, int64(a.Task))
	b = appendString(b, a.Worker)
	return appendAnswer(b, a, flags)
}

// walAnswer reads a WAL record's answer into a and returns its golden
// grade, nil when it has none.
func (r *reader) walAnswer(a *core.Answer) *bool {
	a.Task = core.TaskID(r.varint())
	a.Worker = r.name()
	flags := r.answer(a)
	if flags&^walAnswerFlags != 0 || flags&(answerGolden|answerCorrect) == answerCorrect {
		r.fail()
		return nil
	}
	if flags&answerGolden == 0 {
		return nil
	}
	correct := flags&answerCorrect != 0
	return &correct
}

func appendLease(b []byte, l *core.Lease) []byte {
	b = binary.AppendVarint(b, int64(l.Task))
	b = appendString(b, l.Worker)
	return binary.AppendVarint(b, l.Deadline.UnixNano())
}

func (r *reader) lease(l *core.Lease) {
	l.Task = core.TaskID(r.varint())
	l.Worker = r.name()
	l.Deadline = time.Unix(0, r.varint())
}

func appendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

// appendFloat appends f's raw bits.
func appendFloat(b []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
}

// floatFlag returns flag when f has bits to write: a float equal to +0.0
// is left out of the record and its flag bit stays clear.
func floatFlag(f float64, flag byte) byte {
	if math.Float64bits(f) == 0 {
		return 0
	}
	return flag
}

// appendOptFloat appends f's raw bits unless floatFlag leaves it out.
func appendOptFloat(b []byte, f float64) []byte {
	if math.Float64bits(f) == 0 {
		return b
	}
	return appendFloat(b, f)
}

// errMalformed marks a snapshot section or WAL record whose checksum
// verified but whose contents do not parse.
var errMalformed = errors.New("malformed record")

// errUnknownRecord fails Open on a directory holding a checksummed WAL
// record whose tag is past every tag this build knows: a newer build wrote
// it. Open raises it before it truncates or writes anything, never as a
// decode failure, which recovery would cut as a torn tail, deleting that
// record and every acked one behind it in its file.
var errUnknownRecord = errors.New("durable: the data directory holds WAL records of a kind this build does not read; " +
	"a newer build wrote them, so open it with that build")

// reader reads the fields of a snapshot section or WAL record. The first
// malformed field sets err and empties the input, so every later read
// returns a zero value and callers check err once per record.
type reader struct {
	b     []byte
	err   error
	names map[string]string // worker names and options read so far, for name; nil: none kept
}

func (r *reader) fail() {
	if r.err == nil {
		r.err = errMalformed
	}
	r.b = nil
}

func (r *reader) uvarint() uint64 {
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.fail()
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *reader) varint() int64 {
	v, n := binary.Varint(r.b)
	if n <= 0 {
		r.fail()
		return 0
	}
	r.b = r.b[n:]
	return v
}

// next consumes n bytes.
func (r *reader) next(n int) []byte {
	if n < 0 || n > len(r.b) {
		r.fail()
		return nil
	}
	b := r.b[:n:n]
	r.b = r.b[n:]
	return b
}

func (r *reader) byte() byte {
	if b := r.next(1); b != nil {
		return b[0]
	}
	return 0
}

func (r *reader) float() float64 {
	if b := r.next(8); b != nil {
		return math.Float64frombits(binary.LittleEndian.Uint64(b))
	}
	return 0
}

// optFloat reads a float whose flag bit is set in present; it is 0 when
// the bit is clear.
func (r *reader) optFloat(present byte) float64 {
	if present == 0 {
		return 0
	}
	return r.float()
}

func (r *reader) u32() int {
	if b := r.next(4); b != nil {
		return int(binary.LittleEndian.Uint32(b))
	}
	return 0
}

func (r *reader) str() string { return string(r.next(r.count(1))) }

// name reads a worker name or a task option. With a names table it
// returns the table's copy of a name it has read before, so the answers
// of a WAL file share one string per worker, and its tasks one per
// option, instead of allocating one each.
func (r *reader) name() string {
	b := r.next(r.count(1))
	if r.names == nil {
		return string(b)
	}
	if s, ok := r.names[string(b)]; ok {
		return s
	}
	s := string(b)
	r.names[s] = s
	return s
}

// count reads an element count and rejects one the rest of the input
// cannot hold at minSize bytes per element, so no count makes the decoder
// allocate or loop beyond what its input justifies.
func (r *reader) count(minSize int) int {
	n := r.uvarint()
	if n > uint64(len(r.b)/minSize) {
		r.fail()
		return 0
	}
	return int(n)
}
