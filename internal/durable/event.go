// Package durable persists the serving pool's state so a crash or
// redeploy of the platform does not throw away answers the requester paid
// the crowd for. It follows the classic log-structured recipe:
//
//   - every committed mutation is appended to a write-ahead log (an
//     append-only file of length-prefixed, CRC32-checksummed binary
//     records, laid out in codec.go),
//   - the log is periodically compacted into a snapshot (pool.snap,
//     written atomically via temp file + rename, after which the WAL is
//     truncated), and
//   - Open loads the latest snapshot, replays the WAL tail, and truncates
//     at the first torn or corrupt record instead of failing — a crash
//     mid-append loses at most the unacknowledged suffix. A directory an
//     older build left in JSON (legacy.go) is replayed once and rewritten
//     in the current format before Open returns.
//
// The store owns the pool it persists (Store.Pool) and is that pool's
// write-ahead journal: a mutation is appended after it validated and
// before it is applied, under the owning shard's lock, so the log is the
// pool's state and nothing else. The central invariant is
// ack-implies-durable: the serving layer does not acknowledge an answer
// until the append and, under FsyncAlways, the fsync (Store.Sync)
// succeeded. See DESIGN.md § Durability for the full protocol, including
// the fsync policy matrix and recovery semantics.
package durable

import (
	"time"

	"repro/internal/core"
)

// Event types, one per kind of journaled mutation.
const (
	// EvTaskAdded registers a task (carries the full task definition).
	EvTaskAdded = "task_added"
	// EvAnswerRecorded commits one accepted answer together with the
	// budget units it was charged and, for golden tasks, whether the
	// worker got it right. This is the record the ack-implies-durable
	// invariant protects.
	EvAnswerRecorded = "answer_recorded"
	// EvAnswerBatch commits several accepted answers in one record: the
	// batch-ingestion endpoint journals all answers that landed on one WAL
	// segment with a single append (and a single fsync under FsyncAlways),
	// which is the durability half of amortizing per-answer overhead. Cost
	// is the total charged for the batch; Goldens is index-aligned with
	// Answers (nil entries for non-golden tasks).
	EvAnswerBatch = "answer_batch"
	// EvTaskClosed marks a task as no longer accepting answers.
	EvTaskClosed = "task_closed"
	// EvWorkerEliminated is an audit marker older builds journaled when a
	// golden-task observation tipped a worker over the elimination
	// threshold. Nothing writes it any more and it has no binary record:
	// replay derives eliminations from the tallies, so a JSON one folds to
	// nothing.
	EvWorkerEliminated = "worker_eliminated"
	// EvBudgetCharged / EvBudgetRefunded adjust the durable spend for
	// charges that do not ride an answer record (bulk pricing, manual
	// adjustments). The serving path itself never emits them: an accepted
	// answer's cost travels on its EvAnswerRecorded event, so a charge
	// whose answer the pool rejects (and is refunded) never touches the log.
	EvBudgetCharged  = "budget_charged"
	EvBudgetRefunded = "budget_refunded"
	// EvLeaseIssued / EvLeaseExpired track assignment leases so recovery
	// restores in-flight claims. Lease consumption is implicit in
	// EvAnswerRecorded (Record consumes the matching lease), exactly as
	// in the live pool.
	EvLeaseIssued  = "lease_issued"
	EvLeaseExpired = "lease_expired"

	// CrowdQL session-lifecycle events. Session, prepare, and query events
	// have no task affinity and land on segment 0; question events ride the
	// segment of the task they published, ordered with that task's add,
	// answer, and close records. Together they make the query service
	// crash-recoverable: replaying them rebuilds which sessions were open
	// (with their prepared statements), which queries were running, and
	// which crowd questions still held a budget reservation.
	//
	// EvCqlSessionCreated / EvCqlSessionClosed bracket a named session's
	// lifetime. A graceful close journals the closed event, so only
	// sessions that were open at crash time are restored.
	EvCqlSessionCreated = "cql_session_created"
	EvCqlSessionClosed  = "cql_session_closed"
	// EvCqlPrepared stores a prepared statement's name and source text so
	// recovery can re-prepare it (the source re-parses; row data never
	// rides the log — catalogs persist separately, see DESIGN.md).
	EvCqlPrepared = "cql_prepared"
	// EvCqlQueryStarted / EvCqlQueryFinished bracket a query handle's run.
	// A started event without a matching finished event marks a query that
	// was mid-flight at crash time; recovery resurrects its handle with
	// status "recovered" instead of silently vanishing it.
	EvCqlQueryStarted  = "cql_query_started"
	EvCqlQueryFinished = "cql_query_finished"
	// EvCqlQuestionPublished journals the gateway's redundancy-k budget
	// reservation as a crowd question is published (Amount = k, folded into
	// the durable spend). EvCqlQuestionRefund releases part of the
	// reservation as answers arrive (each arriving answer carries its own
	// charge on its answer record). EvCqlQuestionClosed retires the
	// question, refunding the unconsumed remainder. A published event with
	// no closed event is an orphaned question: recovery closes its task and
	// refunds reserved − refunded, so post-recovery spend equals acked
	// answers exactly.
	EvCqlQuestionPublished = "cql_question_published"
	EvCqlQuestionRefund    = "cql_question_refund"
	EvCqlQuestionClosed    = "cql_question_closed"
)

// TaskRecord is the wire form of a core.Task. Payload (operator-specific
// context) is not persisted: the kernel never inspects it and it may not
// be serializable.
type TaskRecord struct {
	ID               core.TaskID `json:"id"`
	Kind             int         `json:"kind"`
	Question         string      `json:"q,omitempty"`
	Options          []string    `json:"opts,omitempty"`
	Difficulty       float64     `json:"diff,omitempty"`
	Golden           bool        `json:"golden,omitempty"`
	GroundTruth      int         `json:"gt"`
	GroundTruthText  string      `json:"gtt,omitempty"`
	GroundTruthScore float64     `json:"gts,omitempty"`
}

func taskRecord(t *core.Task) *TaskRecord {
	return &TaskRecord{
		ID: t.ID, Kind: int(t.Kind), Question: t.Question, Options: t.Options,
		Difficulty: t.Difficulty, Golden: t.Golden,
		GroundTruth: t.GroundTruth, GroundTruthText: t.GroundTruthText,
		GroundTruthScore: t.GroundTruthScore,
	}
}

func (r *TaskRecord) task() *core.Task {
	return &core.Task{
		ID: r.ID, Kind: core.TaskKind(r.Kind), Question: r.Question, Options: r.Options,
		Difficulty: r.Difficulty, Golden: r.Golden,
		GroundTruth: r.GroundTruth, GroundTruthText: r.GroundTruthText,
		GroundTruthScore: r.GroundTruthScore,
	}
}

// AnswerRecord is the wire form of a core.Answer.
type AnswerRecord struct {
	Task      core.TaskID `json:"task"`
	Worker    string      `json:"worker"`
	Option    int         `json:"option"`
	Text      string      `json:"text,omitempty"`
	Score     float64     `json:"score,omitempty"`
	Submitted float64     `json:"sub,omitempty"`
	Latency   float64     `json:"lat,omitempty"`
}

func answerRecord(a core.Answer) *AnswerRecord {
	return &AnswerRecord{
		Task: a.Task, Worker: a.Worker, Option: a.Option,
		Text: a.Text, Score: a.Score, Submitted: a.Submitted, Latency: a.Latency,
	}
}

func (r *AnswerRecord) answer() core.Answer {
	return core.Answer{
		Task: r.Task, Worker: r.Worker, Option: r.Option,
		Text: r.Text, Score: r.Score, Submitted: r.Submitted, Latency: r.Latency,
	}
}

// LeaseRecord is the wire form of a core.Lease; the deadline is absolute
// wall-clock nanoseconds, so leases recovered after downtime longer than
// their TTL are already expired and the first sweep reclaims them.
type LeaseRecord struct {
	Task     core.TaskID `json:"task"`
	Worker   string      `json:"worker"`
	Deadline int64       `json:"deadline"`
}

func leaseRecord(l core.Lease) *LeaseRecord {
	return &LeaseRecord{Task: l.Task, Worker: l.Worker, Deadline: l.Deadline.UnixNano()}
}

func (r *LeaseRecord) deadline() time.Time { return time.Unix(0, r.Deadline) }

// Event is one WAL record. Seq is assigned by the store and strictly
// increases across snapshots and restarts; recovery replays only events
// with Seq greater than the snapshot's LastSeq, which makes a crash
// between snapshot publication and WAL truncation harmless. Records are
// written in codec.go's binary layout; the JSON field names are the
// record format of older builds, which legacy.go still reads.
type Event struct {
	Seq     uint64         `json:"seq"`
	Type    string         `json:"type"`
	Task    *TaskRecord    `json:"task,omitempty"`
	TaskID  core.TaskID    `json:"task_id,omitempty"`
	Worker  string         `json:"worker,omitempty"`
	Answer  *AnswerRecord  `json:"answer,omitempty"`
	Answers []AnswerRecord `json:"answers,omitempty"`
	Cost    float64        `json:"cost,omitempty"`
	Golden  *bool          `json:"golden,omitempty"`
	Goldens []*bool        `json:"goldens,omitempty"`
	Amount  float64        `json:"amount,omitempty"`
	Lease   *LeaseRecord   `json:"lease,omitempty"`
	Leases  []LeaseRecord  `json:"leases,omitempty"`
	// CrowdQL fields (EvCql* events only): the owning session, the query
	// handle id, a prepared statement or source text, and a terminal query
	// status.
	Session string `json:"session,omitempty"`
	Query   string `json:"query,omitempty"`
	Name    string `json:"name,omitempty"`
	Src     string `json:"src,omitempty"`
	Status  string `json:"status,omitempty"`
}
