// CrowdQL durability: the store journals session-lifecycle and
// crowd-question reservation records alongside the pool WAL and folds them
// into a replica of the query service's state, so recovery can reopen the
// sessions that were live at crash time and reconcile the budget held by
// questions that never closed. See DESIGN.md § CrowdQL durability.
package durable

import (
	"sort"
	"strings"

	"repro/internal/core"
)

// CQLSessionState is the recovered image of one open session: its
// prepared statements (name → source) and the queries that were running
// when the journal ends (query id → source text, "" for prepared runs
// whose source lives under Prepared).
type CQLSessionState struct {
	Name     string
	Prepared map[string]string
	Running  map[string]string
}

// CQLQuestionState is the recovered image of one open crowd question: the
// published task, the redundancy-k reservation charged at publish, and
// how much of it the arriving answers already released. Reserved −
// Refunded is the remainder recovery must hand back.
type CQLQuestionState struct {
	Task     core.TaskID
	Reserved float64
	Refunded float64
}

// cqlReplica is the store's fold of the EvCql* records, guarded by s.mu
// like the other cross-task replica state. Maps are allocated lazily: a
// deployment that never mounts the query service pays nothing.
type cqlReplica struct {
	sessions  map[string]*CQLSessionState // key: lowercased name
	questions map[core.TaskID]*CQLQuestionState
}

func (r *cqlReplica) session(name string) *CQLSessionState {
	key := strings.ToLower(name)
	if r.sessions == nil {
		r.sessions = make(map[string]*CQLSessionState)
	}
	st := r.sessions[key]
	if st == nil {
		st = &CQLSessionState{
			Name:     name,
			Prepared: make(map[string]string),
			Running:  make(map[string]string),
		}
		r.sessions[key] = st
	}
	return st
}

// apply folds one EvCql* record; caller holds s.mu. Returns false for
// other record types so foldCross can fall through.
func (r *cqlReplica) apply(ev *Record) bool {
	switch ev.Type {
	case EvCqlSessionCreated:
		r.session(ev.Session)
	case EvCqlSessionClosed:
		delete(r.sessions, strings.ToLower(ev.Session))
	case EvCqlPrepared:
		r.session(ev.Session).Prepared[ev.Name] = ev.Src
	case EvCqlQueryStarted:
		r.session(ev.Session).Running[ev.Query] = ev.Src
	case EvCqlQueryFinished:
		delete(r.session(ev.Session).Running, ev.Query)
	case EvCqlQuestionPublished:
		if r.questions == nil {
			r.questions = make(map[core.TaskID]*CQLQuestionState)
		}
		r.questions[ev.TaskID] = &CQLQuestionState{Task: ev.TaskID, Reserved: ev.Amount}
	case EvCqlQuestionRefund:
		if q := r.questions[ev.TaskID]; q != nil {
			q.Refunded += ev.Amount
		}
	case EvCqlQuestionClosed:
		delete(r.questions, ev.TaskID)
	default:
		return false
	}
	return true
}

// cqlSpendDelta is how a record moves the durable budget spend: the publish
// charge and the per-answer / close refunds mirror the live gateway's
// reservation protocol, so the replica's spend equals the live budget's at
// every journaled instant.
func cqlSpendDelta(ev *Record) float64 {
	switch ev.Type {
	case EvCqlQuestionPublished:
		return ev.Amount
	case EvCqlQuestionRefund, EvCqlQuestionClosed:
		return -ev.Amount
	}
	return 0
}

// CQLState returns deep copies of the recovered CQL session and open-
// question state, sessions sorted by name and questions by task ID so the
// server's recovery pass is deterministic.
func (s *Store) CQLState() ([]CQLSessionState, []CQLQuestionState) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var sessions []CQLSessionState
	for _, st := range s.repCQL.sessions {
		cp := CQLSessionState{
			Name:     st.Name,
			Prepared: make(map[string]string, len(st.Prepared)),
			Running:  make(map[string]string, len(st.Running)),
		}
		for k, v := range st.Prepared {
			cp.Prepared[k] = v
		}
		for k, v := range st.Running {
			cp.Running[k] = v
		}
		sessions = append(sessions, cp)
	}
	sort.Slice(sessions, func(i, j int) bool { return sessions[i].Name < sessions[j].Name })
	var questions []CQLQuestionState
	for _, q := range s.repCQL.questions {
		questions = append(questions, *q)
	}
	sort.Slice(questions, func(i, j int) bool { return questions[i].Task < questions[j].Task })
	return sessions, questions
}

// The session-lifecycle appenders below land on segment 0 (no task
// affinity, like budget records). Under FsyncAlways they sync before
// returning: the HTTP acks that follow them (session created, statement
// prepared, query handle returned) then imply the transition is on disk,
// extending the ack-implies-durable contract to the query service. These
// are human-latency operations, so the extra fsync is noise.

// CQLSessionCreated journals that a named session opened.
func (s *Store) CQLSessionCreated(name string) error {
	return s.appendSeg(0, &Record{Type: EvCqlSessionCreated, Session: name},
		s.opts.Fsync == FsyncAlways)
}

// CQLSessionClosed journals that a named session closed gracefully;
// recovery will not restore it.
func (s *Store) CQLSessionClosed(name string) error {
	return s.appendSeg(0, &Record{Type: EvCqlSessionClosed, Session: name},
		s.opts.Fsync == FsyncAlways)
}

// CQLPrepared journals a prepared statement's source under its name.
func (s *Store) CQLPrepared(session, name, src string) error {
	return s.appendSeg(0, &Record{Type: EvCqlPrepared, Session: session, Name: name, Src: src},
		s.opts.Fsync == FsyncAlways)
}

// CQLQueryStarted journals that a query handle began executing src.
func (s *Store) CQLQueryStarted(session, qid, src string) error {
	return s.appendSeg(0, &Record{Type: EvCqlQueryStarted, Session: session, Query: qid, Src: src},
		s.opts.Fsync == FsyncAlways)
}

// CQLQueryFinished journals a query handle's terminal status. Lazy sync:
// losing it re-marks an already-finished query as recovered after a
// crash, which is harmless.
func (s *Store) CQLQueryFinished(session, qid, status string) error {
	return s.appendSeg(0, &Record{
		Type: EvCqlQueryFinished, Session: session, Query: qid, Status: status,
	}, false)
}

// The question-reservation appenders below ride the task's own WAL
// segment and never sync by themselves: the gateway publishes and closes
// questions a round at a time, appends every record of the round, and then
// calls SyncTasks once — one fsync per touched segment, as the batch
// answer path does.

// CQLQuestionPublished journals the gateway's reservation of k budget
// units for a freshly published crowd question, ordered after the
// task-added record on the same segment.
func (s *Store) CQLQuestionPublished(id core.TaskID, k float64) error {
	return s.appendSeg(s.segFor(id), &Record{
		Type: EvCqlQuestionPublished, TaskID: id, Amount: k,
	}, false)
}

// CQLQuestionRefunded journals the release of part of a question's
// reservation as answers arrive. Never synced: the matching answer records
// are what acks gate on, and recovery refunds any remainder a lost refund
// record would have covered.
func (s *Store) CQLQuestionRefunded(id core.TaskID, amount float64) error {
	return s.appendSeg(s.segFor(id), &Record{
		Type: EvCqlQuestionRefund, TaskID: id, Amount: amount,
	}, false)
}

// CQLQuestionClosed journals a question's retirement, refunding the
// unconsumed remainder of its reservation (0 for a question that reached
// full redundancy).
func (s *Store) CQLQuestionClosed(id core.TaskID, refund float64) error {
	return s.appendSeg(s.segFor(id), &Record{
		Type: EvCqlQuestionClosed, TaskID: id, Amount: refund,
	}, false)
}

// SyncTasks makes everything journaled so far about the given tasks
// durable: under FsyncAlways it flushes each WAL segment that owns one of
// them, once, through its latest append (a no-op under the other
// policies). After it returns, a publish implies the reservation is on
// disk and a cancel ack implies the refund is.
func (s *Store) SyncTasks(ids []core.TaskID) error {
	if s.opts.Fsync != FsyncAlways {
		return nil
	}
	flushed := make([]bool, len(s.segs))
	for _, id := range ids {
		si := s.segFor(id)
		if flushed[si] {
			continue
		}
		flushed[si] = true
		if err := s.syncSeg(si, s.segs[si].appended.Load()); err != nil {
			return err
		}
	}
	return nil
}
