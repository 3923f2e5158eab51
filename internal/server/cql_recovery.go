package server

import (
	"sort"

	"repro/internal/core"
	"repro/internal/cql"
)

// CQL crash recovery. The durable store replays EvCql* events into its
// fold of the query service's state (open sessions with prepared
// statements and running queries; open crowd questions with their budget
// reservations). recoverCQL turns that fold back into live state at
// boot, in two phases:
//
//  1. Budget reconciliation. Every open question is an orphan: its query
//     goroutine died with the process, so nothing will ever close its
//     task or release the rest of its reservation. The pass closes the
//     task if it is still open (dropping outstanding leases; journaled by
//     the pool) and refunds reserved − refunded — after which the live
//     budget's spent equals exactly the answers that were acked, the
//     same spend a never-crashed control that canceled the question
//     would report. This runs even when the query service is not mounted
//     this boot: the orphaned tasks live in this server's pool.
//
//  2. Session restore (only with WithCQL). Each journaled open session
//     is rebuilt through SessionManager.Restore: the factory reloads its
//     persisted catalog, prepared statements re-parse from their
//     journaled source, and the queries that were running at crash time
//     come back as terminal handles with status "recovered" — pollers
//     learn the results were lost instead of getting a 404. The restored
//     handles' running markers are then retired in the journal so a
//     second restart does not re-recover them.
//
// The pass runs from New after the store's pool was adopted and initCQL
// built the manager, before any traffic. Without a store it is one nil
// check.
func (s *Server) recoverCQL() {
	if s.store == nil {
		return
	}
	sessions, questions := s.store.CQLState()
	orphans := make([]core.TaskID, 0, len(questions))
	for _, q := range questions {
		if err := s.cpool.Close(q.Task); err != nil {
			// Not reconciled in the log, so not in memory either; the
			// question stays an orphan for the next boot.
			if s.reqLog != nil {
				s.reqLog.Error("cql orphan question not closed", "task", q.Task, "error", err)
			}
			continue
		}
		orphans = append(orphans, q.Task)
		remainder := max(q.Reserved-q.Refunded, 0)
		s.budget.Refund(remainder)
		// Retire the question's durable ledger with the same remainder, so
		// the journaled spend tracks the refund we just issued.
		_ = s.store.CQLQuestionClosed(q.Task, remainder)
		s.cqlRecQuestions.Inc()
		s.cqlRecRefund.Add(remainder)
	}
	_ = s.store.SyncTasks(orphans)
	if s.cqlMgr == nil {
		// Durability without the query service: the session records stay in
		// the journal untouched, and a later boot that mounts CQL restores
		// them then.
		return
	}
	for _, sess := range sessions {
		queries := make([]cql.RestoredQuery, 0, len(sess.Running))
		for qid, src := range sess.Running {
			queries = append(queries, cql.RestoredQuery{ID: qid, Src: src})
		}
		sort.Slice(queries, func(i, j int) bool { return queries[i].ID < queries[j].ID })
		if _, err := s.cqlMgr.Restore(sess.Name, sess.Prepared, queries); err != nil {
			if s.reqLog != nil {
				s.reqLog.Error("cql session restore failed", "session", sess.Name, "error", err)
			}
			continue
		}
		s.cqlRecSessions.Inc()
		s.cqlRecQueries.Add(int64(len(queries)))
		for _, rq := range queries {
			// The resurrected handle is terminal; the journal must stop
			// calling it running, or the next restart would recover it again
			// (and shadow genuinely new mid-flight queries in the counts).
			_ = s.store.CQLQueryFinished(sess.Name, rq.ID, string(cql.QueryRecovered))
		}
	}
}
