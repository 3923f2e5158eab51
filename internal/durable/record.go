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
//     mid-append loses at most the unacknowledged suffix. Open reads only
//     the formats this build writes: a directory an older build left in
//     JSON fails it with errJSONEra, untouched.
//
// The store owns the pool it persists (Store.Pool) and is that pool's
// write-ahead journal: a core.Mutation is appended after it validated and
// before it is applied, under the owning shard's lock, so the log is the
// pool's state and nothing else. Recovery hands every logged mutation to
// core.Pool.Replay, which checks and applies it with the functions the
// live pool used. The central invariant is ack-implies-durable: the
// serving layer does not acknowledge an answer until the append and, under
// FsyncAlways, the fsync (Store.Sync) succeeded. See DESIGN.md §
// Durability for the full protocol, including the fsync policy matrix and
// recovery semantics.
package durable

import "repro/internal/core"

// Record is one WAL record: a pool mutation, or one of the cross-task
// entries that only the store folds — a CrowdQL ledger entry, or a budget
// adjustment the retention reader read. Seq is assigned by the store and
// strictly increases across snapshots and restarts; recovery replays only
// records with Seq greater than the snapshot's LastSeq, which makes a
// crash between snapshot publication and WAL truncation harmless.
type Record struct {
	Seq uint64
	// Mut is the record's pool mutation; its Kind is 0 on a cross-task
	// record.
	Mut core.Mutation
	// Type names a cross-task record's kind, one of the constants below;
	// it is "" on a pool mutation. The fields after it are those kinds'.
	Type string
	// Amount is a question record's reservation or refund in units, or a
	// retired budget record's; TaskID is the question's task.
	Amount int64
	TaskID core.TaskID
	// Session, Query, Name, Src and Status are the CrowdQL fields: the
	// owning session, the query handle id, a prepared statement's name,
	// source text, and a terminal query status.
	Session, Query, Name, Src, Status string
}

// Cross-task record types.
const (
	// EvBudgetCharged / EvBudgetRefunded adjust the durable spend by
	// Amount. Builds up to 41542c1 could journal them; this build only
	// reads them (retention.go).
	EvBudgetCharged  = "budget_charged"
	EvBudgetRefunded = "budget_refunded"

	// CrowdQL session-lifecycle records. Session, prepare, and query
	// records have no task affinity and land on segment 0; question
	// records ride the segment of the task they published, ordered with
	// that task's add, answer, and close records. Together they make the
	// query service crash-recoverable: replaying them rebuilds which
	// sessions were open (with their prepared statements), which queries
	// were running, and which crowd questions still held a budget
	// reservation.
	//
	// EvCqlSessionCreated / EvCqlSessionClosed bracket a named session's
	// lifetime. A graceful close journals the closed record, so only
	// sessions that were open at crash time are restored.
	EvCqlSessionCreated = "cql_session_created"
	EvCqlSessionClosed  = "cql_session_closed"
	// EvCqlPrepared stores a prepared statement's name and source text so
	// recovery can re-prepare it (the source re-parses; row data never
	// rides the log — catalogs persist separately, see DESIGN.md).
	EvCqlPrepared = "cql_prepared"
	// EvCqlQueryStarted / EvCqlQueryFinished bracket a query handle's run.
	// A started record without a matching finished one marks a query that
	// was mid-flight at crash time; recovery resurrects its handle with
	// status "recovered" instead of silently vanishing it.
	EvCqlQueryStarted  = "cql_query_started"
	EvCqlQueryFinished = "cql_query_finished"
	// EvCqlQuestionPublished journals the gateway's redundancy-k budget
	// reservation as a crowd question is published (Amount = k, folded
	// into the durable spend). EvCqlQuestionRefund releases part of the
	// reservation as answers arrive (each arriving answer carries its own
	// charge on its mutation). EvCqlQuestionClosed retires the question,
	// refunding the unconsumed remainder. A published record with no
	// closed record is an orphaned question: recovery closes its task and
	// refunds reserved − refunded, so post-recovery spend equals acked
	// answers exactly.
	EvCqlQuestionPublished = "cql_question_published"
	EvCqlQuestionRefund    = "cql_question_refund"
	EvCqlQuestionClosed    = "cql_question_closed"
)

// foldsBeyondCount reports whether foldCross reads more of rec than its
// mutation's kind and answer count: it does for a budget or CrowdQL record
// and for answers that carry golden grades. Recovery keeps only those two
// fields of every other record it folds.
func foldsBeyondCount(rec *Record) bool { return rec.Mut.Kind == 0 || rec.Mut.Golden != nil }

// foldCross folds the part of one record that no pool shard applies: the
// budget spend (one unit per answer), the golden-screen tallies and the
// CrowdQL ledger. The spend clamps at zero and the ledger is
// order-dependent, so callers must present records in sequence order: the
// live append path does by construction, recovery by merging the segment
// files before it folds.
func (s *Store) foldCross(rec *Record) {
	m := &rec.Mut
	if m.Kind != 0 && m.Kind != core.MutAnswers {
		// Task, close and lease mutations: nothing cross-task to fold.
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case m.Kind != 0:
		s.repSpent += int64(len(m.Answers))
		for i, g := range m.Golden {
			if g != nil {
				s.tallyLocked(m.Answers[i].Worker, *g)
			}
		}
	case rec.Type == EvBudgetCharged:
		s.repSpent += rec.Amount
	case rec.Type == EvBudgetRefunded:
		s.repSpent = max(s.repSpent-rec.Amount, 0)
	default:
		// CrowdQL session/question records fold into the cross-task
		// replica; the reservation records also move the durable spend.
		s.repSpent = max(s.repSpent+s.repCQL.apply(rec), 0)
	}
}

// tallyLocked folds one golden observation; caller holds s.mu.
func (s *Store) tallyLocked(worker string, correct bool) {
	t := s.repScreen[worker]
	t.Total++
	if correct {
		t.Correct++
	}
	s.repScreen[worker] = t
}
