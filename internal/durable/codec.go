package durable

import (
	"encoding/binary"
	"errors"
	"math"

	"repro/internal/core"
)

// The binary codec of the data directory: the field primitives, task and
// answer fields, and WAL records. Format-2 snapshot sections (snapshot.go)
// and WAL records are both built from it.
//
// A WAL record's payload is one tag byte naming the event type, the
// uvarint sequence number, then the type's fields:
//
//	task_added                    varint ID | task
//	answer_recorded               answer | f64 cost
//	answer_batch                  uvarint answers, each an answer | f64 cost (the batch's total)
//	task_closed                   varint task
//	budget_charged, _refunded     f64 amount
//	lease_issued                  lease
//	lease_expired                 uvarint leases, each a lease
//	cql_session_created, _closed  string session
//	cql_prepared                  string session | string name | string source
//	cql_query_started             string session | string query | string source
//	cql_query_finished            string session | string query | string status
//	cql_question_published, _refund, _closed
//	                              varint task | f64 amount
//
// where
//
//	task:   varint kind | string question | uvarint options, strings | byte flags |
//	        [f64 difficulty] | varint ground truth | [string truth text] | [f64 truth score]
//	answer: varint task | string worker | varint option | byte flags |
//	        [string text] [f64 score] [f64 submitted] [f64 latency]
//	lease:  varint task | string worker | varint deadline (Unix ns)
//
// A string is a uvarint length and its bytes. An f64 is a float's raw IEEE
// bits, little endian, so a replayed spend equals the journaled one bit for
// bit; a bracketed one is present only when its flag bit is set, and a
// float equal to +0.0 is left out. An answer's flags add two bits to the
// snapshot's: answerGolden when the answer was graded against a golden
// task, and answerCorrect for the grade.
//
// No tag is '{': a payload that starts with it is a JSON record of the
// format before this one, which legacy.go reads.

// Event tags. Tag 0 is unused, so a zeroed payload does not decode.
const (
	tagTaskAdded = 1 + iota
	tagAnswerRecorded
	tagAnswerBatch
	tagTaskClosed
	tagBudgetCharged
	tagBudgetRefunded
	tagLeaseIssued
	tagLeaseExpired
	tagCqlSessionCreated
	tagCqlSessionClosed
	tagCqlPrepared
	tagCqlQueryStarted
	tagCqlQueryFinished
	tagCqlQuestionPublished
	tagCqlQuestionRefund
	tagCqlQuestionClosed
	numTags
)

// eventTypes names the event type of each tag.
var eventTypes = [numTags]string{
	tagTaskAdded:            EvTaskAdded,
	tagAnswerRecorded:       EvAnswerRecorded,
	tagAnswerBatch:          EvAnswerBatch,
	tagTaskClosed:           EvTaskClosed,
	tagBudgetCharged:        EvBudgetCharged,
	tagBudgetRefunded:       EvBudgetRefunded,
	tagLeaseIssued:          EvLeaseIssued,
	tagLeaseExpired:         EvLeaseExpired,
	tagCqlSessionCreated:    EvCqlSessionCreated,
	tagCqlSessionClosed:     EvCqlSessionClosed,
	tagCqlPrepared:          EvCqlPrepared,
	tagCqlQueryStarted:      EvCqlQueryStarted,
	tagCqlQueryFinished:     EvCqlQueryFinished,
	tagCqlQuestionPublished: EvCqlQuestionPublished,
	tagCqlQuestionRefund:    EvCqlQuestionRefund,
	tagCqlQuestionClosed:    EvCqlQuestionClosed,
}

// eventTags is eventTypes inverted.
var eventTags = func() map[string]byte {
	m := make(map[string]byte, numTags)
	for tag, typ := range eventTypes {
		if typ != "" {
			m[typ] = byte(tag)
		}
	}
	return m
}()

// eventTag returns the tag of an event type. Every event the store builds
// has one, so a miss is a programming error.
func eventTag(typ string) byte {
	tag, ok := eventTags[typ]
	if !ok {
		panic("durable: no WAL record tag for event type " + typ)
	}
	return tag
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

// appendEvent appends ev as one WAL record payload.
func appendEvent(dst []byte, ev *Event) []byte {
	dst = binary.AppendUvarint(append(dst, eventTag(ev.Type)), ev.Seq)
	return appendEventBody(dst, ev)
}

// appendEventBody appends the fields of ev's type, the part of its record
// after the tag and sequence number.
func appendEventBody(b []byte, ev *Event) []byte {
	switch ev.Type {
	case EvTaskAdded:
		return appendTask(binary.AppendVarint(b, int64(ev.Task.ID)), ev.Task, 0)
	case EvAnswerRecorded:
		return appendFloat(appendWALAnswer(b, ev.Answer, ev.Golden), ev.Cost)
	case EvAnswerBatch:
		b = binary.AppendUvarint(b, uint64(len(ev.Answers)))
		for i := range ev.Answers {
			var golden *bool
			if i < len(ev.Goldens) {
				golden = ev.Goldens[i]
			}
			b = appendWALAnswer(b, &ev.Answers[i], golden)
		}
		return appendFloat(b, ev.Cost)
	case EvTaskClosed:
		return binary.AppendVarint(b, int64(ev.TaskID))
	case EvBudgetCharged, EvBudgetRefunded:
		return appendFloat(b, ev.Amount)
	case EvLeaseIssued:
		return appendLease(b, ev.Lease)
	case EvLeaseExpired:
		b = binary.AppendUvarint(b, uint64(len(ev.Leases)))
		for i := range ev.Leases {
			b = appendLease(b, &ev.Leases[i])
		}
		return b
	case EvCqlSessionCreated, EvCqlSessionClosed:
		return appendString(b, ev.Session)
	case EvCqlPrepared:
		return appendString(appendString(appendString(b, ev.Session), ev.Name), ev.Src)
	case EvCqlQueryStarted:
		return appendString(appendString(appendString(b, ev.Session), ev.Query), ev.Src)
	case EvCqlQueryFinished:
		return appendString(appendString(appendString(b, ev.Session), ev.Query), ev.Status)
	case EvCqlQuestionPublished, EvCqlQuestionRefund, EvCqlQuestionClosed:
		return appendFloat(binary.AppendVarint(b, int64(ev.TaskID)), ev.Amount)
	}
	panic("durable: no WAL record layout for event type " + ev.Type)
}

// decodeEvent decodes one binary WAL record payload into ev, replacing
// whatever ev held. Every field of the record's type must parse and the
// payload must end with the last one. names, when not nil, interns worker
// names across the records decoded with it (see reader.name).
func decodeEvent(payload []byte, ev *Event, names map[string]string) error {
	r := reader{b: payload, names: names}
	tag := r.byte()
	if tag == 0 || tag >= numTags {
		return errMalformed
	}
	*ev = Event{Type: eventTypes[tag], Seq: r.uvarint()}
	switch tag {
	case tagTaskAdded:
		t := &TaskRecord{ID: core.TaskID(r.varint())}
		if r.task(t)&^walTaskFlags != 0 {
			r.fail()
		}
		ev.Task = t
	case tagAnswerRecorded:
		a := &AnswerRecord{}
		ev.Golden = r.walAnswer(a)
		ev.Answer, ev.Worker, ev.Cost = a, a.Worker, r.float()
	case tagAnswerBatch:
		ev.Answers = make([]AnswerRecord, r.count(4)) // task, worker, option and flags take a byte each at least
		for i := range ev.Answers {
			if g := r.walAnswer(&ev.Answers[i]); g != nil {
				if ev.Goldens == nil {
					ev.Goldens = make([]*bool, len(ev.Answers))
				}
				ev.Goldens[i] = g
			}
		}
		ev.Cost = r.float()
	case tagTaskClosed:
		ev.TaskID = core.TaskID(r.varint())
	case tagBudgetCharged, tagBudgetRefunded:
		ev.Amount = r.float()
	case tagLeaseIssued:
		ev.Lease = &LeaseRecord{}
		r.lease(ev.Lease)
	case tagLeaseExpired:
		ev.Leases = make([]LeaseRecord, r.count(3)) // task, worker and deadline take a byte each at least
		for i := range ev.Leases {
			r.lease(&ev.Leases[i])
		}
	case tagCqlSessionCreated, tagCqlSessionClosed:
		ev.Session = r.str()
	case tagCqlPrepared:
		ev.Session, ev.Name, ev.Src = r.str(), r.str(), r.str()
	case tagCqlQueryStarted:
		ev.Session, ev.Query, ev.Src = r.str(), r.str(), r.str()
	case tagCqlQueryFinished:
		ev.Session, ev.Query, ev.Status = r.str(), r.str(), r.str()
	case tagCqlQuestionPublished, tagCqlQuestionRefund, tagCqlQuestionClosed:
		ev.TaskID = core.TaskID(r.varint())
		ev.Amount = r.float()
	}
	if len(r.b) != 0 {
		r.fail() // bytes after the record's last field
	}
	return r.err
}

// appendTask appends a task's fields; flags carries the caller's bits
// (taskClosed) beside the ones the fields imply.
func appendTask(b []byte, t *TaskRecord, flags byte) []byte {
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
// byte for the caller to check.
func (r *reader) task(t *TaskRecord) byte {
	t.Kind = int(r.varint())
	t.Question = r.str()
	if n := r.count(1); n > 0 {
		t.Options = make([]string, n)
		for i := range t.Options {
			t.Options[i] = r.str()
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
func appendWALAnswer(b []byte, a *AnswerRecord, golden *bool) []byte {
	var flags byte
	if golden != nil {
		flags = answerGolden
		if *golden {
			flags |= answerCorrect
		}
	}
	b = binary.AppendVarint(b, int64(a.Task))
	b = appendString(b, a.Worker)
	return appendAnswer(b, (*core.Answer)(a), flags)
}

// walAnswer reads a WAL record's answer into a and returns its golden
// grade, nil when it has none.
func (r *reader) walAnswer(a *AnswerRecord) *bool {
	a.Task = core.TaskID(r.varint())
	a.Worker = r.name()
	flags := r.answer((*core.Answer)(a))
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

func appendLease(b []byte, l *LeaseRecord) []byte {
	b = binary.AppendVarint(b, int64(l.Task))
	b = appendString(b, l.Worker)
	return binary.AppendVarint(b, l.Deadline)
}

func (r *reader) lease(l *LeaseRecord) {
	l.Task = core.TaskID(r.varint())
	l.Worker = r.name()
	l.Deadline = r.varint()
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

// reader reads the fields of a snapshot section or WAL record. The first
// malformed field sets err and empties the input, so every later read
// returns a zero value and callers check err once per record.
type reader struct {
	b     []byte
	err   error
	names map[string]string // worker names read so far, for name; nil: none kept
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

// name reads a worker name. With a names table it returns the table's copy
// of a name it has read before, so the answers of a WAL file share one
// string per worker instead of allocating one each.
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
