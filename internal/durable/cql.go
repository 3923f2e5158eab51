// CrowdQL durability: the store journals session-lifecycle and
// crowd-question reservation records alongside the pool WAL and folds them
// into a replica of the query service's state, so recovery can reopen the
// sessions that were live at crash time and reconcile the budget held by
// questions that never closed. See DESIGN.md § CrowdQL durability.
package durable

import (
	"maps"
	"sort"
	"strings"

	"repro/internal/core"
)

// CQLSessionState is the recovered image of one open session: its
// prepared statements (name → source) and the queries that were running
// when the journal ends (query id → source text, "" for prepared runs
// whose source lives under Prepared). Snapshots store it as it is.
type CQLSessionState struct {
	Name     string            `json:"name"`
	Prepared map[string]string `json:"prepared,omitempty"`
	Running  map[string]string `json:"running,omitempty"`
}

// CQLQuestionState is the recovered image of one open crowd question: the
// published task, the redundancy-k reservation charged at publish, and
// how much of it the arriving answers already released. Reserved −
// Refunded is the remainder recovery must hand back. All three are in
// units. Snapshots store it as it is.
type CQLQuestionState struct {
	Task     core.TaskID `json:"task"`
	Reserved int64       `json:"reserved"`
	Refunded int64       `json:"refunded,omitempty"`
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

// apply folds one EvCql* record and returns how it moves the durable
// budget spend; caller holds s.mu. The publish charge and the per-answer
// and close refunds mirror the live gateway's reservation protocol, so the
// replica's spend equals the live budget's at every journaled instant.
func (r *cqlReplica) apply(ev *Record) (spend int64) {
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
		return ev.Amount
	case EvCqlQuestionRefund:
		if q := r.questions[ev.TaskID]; q != nil {
			q.Refunded += ev.Amount
		}
		return -ev.Amount
	case EvCqlQuestionClosed:
		delete(r.questions, ev.TaskID)
		return -ev.Amount
	}
	return 0
}

// cqlImage is the CrowdQL ledger as a snapshot stores it and recovery
// reports it: sessions sorted by name, questions by task ID.
type cqlImage struct {
	Sessions  []CQLSessionState  `json:"sessions,omitempty"`
	Questions []CQLQuestionState `json:"questions,omitempty"`
}

// image returns the replica's cqlImage, or nil when the service journaled
// nothing; the sessions share the replica's maps. Caller holds s.mu.
func (r *cqlReplica) image() *cqlImage {
	if len(r.sessions) == 0 && len(r.questions) == 0 {
		return nil
	}
	img := &cqlImage{}
	for _, st := range r.sessions {
		img.Sessions = append(img.Sessions, *st)
	}
	sort.Slice(img.Sessions, func(i, j int) bool { return img.Sessions[i].Name < img.Sessions[j].Name })
	for _, q := range r.questions {
		img.Questions = append(img.Questions, *q)
	}
	sort.Slice(img.Questions, func(i, j int) bool { return img.Questions[i].Task < img.Questions[j].Task })
	return img
}

// CQLState returns deep copies of the recovered CQL session and open-
// question state, sessions sorted by name and questions by task ID so the
// server's recovery pass is deterministic.
func (s *Store) CQLState() ([]CQLSessionState, []CQLQuestionState) {
	s.mu.Lock()
	defer s.mu.Unlock()
	img := s.repCQL.image()
	if img == nil {
		return nil, nil
	}
	for i := range img.Sessions {
		st := &img.Sessions[i]
		st.Prepared, st.Running = maps.Clone(st.Prepared), maps.Clone(st.Running)
	}
	return img.Sessions, img.Questions
}

// The session-lifecycle appenders below land on segment 0 (no task
// affinity). Under FsyncAlways they sync before
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
func (s *Store) CQLQuestionPublished(id core.TaskID, k int64) error {
	return s.appendSeg(s.segFor(id), &Record{
		Type: EvCqlQuestionPublished, TaskID: id, Amount: k,
	}, false)
}

// CQLQuestionRefunded journals the release of part of a question's
// reservation as answers arrive. Never synced: the matching answer records
// are what acks gate on, and recovery refunds any remainder a lost refund
// record would have covered.
func (s *Store) CQLQuestionRefunded(id core.TaskID, units int64) error {
	return s.appendSeg(s.segFor(id), &Record{
		Type: EvCqlQuestionRefund, TaskID: id, Amount: units,
	}, false)
}

// CQLQuestionClosed journals a question's retirement, refunding the
// unconsumed remainder of its reservation (0 for a question that reached
// full redundancy).
func (s *Store) CQLQuestionClosed(id core.TaskID, refund int64) error {
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
