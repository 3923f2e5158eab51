package durable

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"repro/internal/core"
)

// snapName is the snapshot file inside the data directory. There is only
// ever one: writeSnapshot replaces it atomically (temp file + fsync +
// rename + directory fsync), so at every instant the directory holds
// either the previous complete snapshot or the new complete snapshot,
// never a partial one.
const snapName = "pool.snap"

// Snapshot is the durable image of the pool and the cross-task state as of
// LastSeq. Recovery loads it and replays only WAL events with Seq >
// LastSeq, which makes a crash between snapshot publication and WAL
// truncation harmless (the overlapping records are skipped, not
// double-applied).
type Snapshot struct {
	Format      int                         `json:"format"`
	LastSeq     uint64                      `json:"last_seq"`
	Tasks       []TaskRecord                `json:"tasks"`
	Closed      []core.TaskID               `json:"closed,omitempty"`
	Answers     []AnswerRecord              `json:"answers,omitempty"`
	Leases      []LeaseRecord               `json:"leases,omitempty"`
	BudgetSpent float64                     `json:"budget_spent"`
	Screen      map[string]core.ScreenTally `json:"screen,omitempty"`
	// CQL captures the query service's open sessions and in-flight crowd
	// questions (omitted when the service journaled nothing, so snapshots
	// from deployments without CrowdQL are byte-identical to format 1).
	CQL *CQLSnapshot `json:"cql,omitempty"`
}

// CQLSnapshot is the snapshot image of the CrowdQL ledger.
type CQLSnapshot struct {
	Sessions  []CQLSessionSnap  `json:"sessions,omitempty"`
	Questions []CQLQuestionSnap `json:"questions,omitempty"`
}

// CQLSessionSnap is one open session: prepared statements by name and the
// queries still running as of the snapshot.
type CQLSessionSnap struct {
	Name     string            `json:"name"`
	Prepared map[string]string `json:"prepared,omitempty"`
	Running  map[string]string `json:"running,omitempty"`
}

// CQLQuestionSnap is one open crowd question's reservation ledger.
type CQLQuestionSnap struct {
	Task     core.TaskID `json:"task"`
	Reserved float64     `json:"reserved"`
	Refunded float64     `json:"refunded,omitempty"`
}

// snapshotFormat is the current layout version; Open rejects snapshots
// from a future format instead of misreading them.
const snapshotFormat = 1

// buildSnapshot serializes the pool shards and the cross-task state. Tasks
// go out in insertion order from a single shard and in ascending ID order
// across several; answers keep that task order, then arrival order, so a
// pool rebuilt from the snapshot iterates identically to the original.
// Leases are sorted by (task, worker).
func buildSnapshot(pools []*core.Pool, spent float64, screen map[string]core.ScreenTally, lastSeq uint64, cql *cqlReplica) *Snapshot {
	s := &Snapshot{
		Format:      snapshotFormat,
		LastSeq:     lastSeq,
		BudgetSpent: spent,
	}
	for _, id := range core.TaskIDsOf(pools) {
		p := pools[core.ShardIndex(id, len(pools))]
		s.Tasks = append(s.Tasks, *taskRecord(p.Task(id)))
		if p.Closed(id) {
			s.Closed = append(s.Closed, id)
		}
		for _, a := range p.Answers(id) {
			s.Answers = append(s.Answers, *answerRecord(a))
		}
	}
	for _, l := range core.LeasesOf(pools) {
		s.Leases = append(s.Leases, *leaseRecord(l))
	}
	if len(screen) > 0 {
		s.Screen = make(map[string]core.ScreenTally, len(screen))
		for w, t := range screen {
			s.Screen[w] = t
		}
	}
	if cql != nil && (len(cql.sessions) > 0 || len(cql.questions) > 0) {
		cs := &CQLSnapshot{}
		for _, sess := range cql.sessions {
			snap := CQLSessionSnap{Name: sess.Name}
			if len(sess.Prepared) > 0 {
				snap.Prepared = make(map[string]string, len(sess.Prepared))
				for k, v := range sess.Prepared {
					snap.Prepared[k] = v
				}
			}
			if len(sess.Running) > 0 {
				snap.Running = make(map[string]string, len(sess.Running))
				for k, v := range sess.Running {
					snap.Running[k] = v
				}
			}
			cs.Sessions = append(cs.Sessions, snap)
		}
		sort.Slice(cs.Sessions, func(i, j int) bool { return cs.Sessions[i].Name < cs.Sessions[j].Name })
		for _, q := range cql.questions {
			cs.Questions = append(cs.Questions, CQLQuestionSnap{
				Task: q.Task, Reserved: q.Reserved, Refunded: q.Refunded,
			})
		}
		sort.Slice(cs.Questions, func(i, j int) bool { return cs.Questions[i].Task < cs.Questions[j].Task })
		s.CQL = cs
	}
	return s
}

// restoreCQL rebuilds the CrowdQL replica from the snapshot's CQL section
// (an empty replica when the section is absent).
func (s *Snapshot) restoreCQL() cqlReplica {
	var r cqlReplica
	if s.CQL == nil {
		return r
	}
	for i := range s.CQL.Sessions {
		snap := &s.CQL.Sessions[i]
		st := r.session(snap.Name)
		for k, v := range snap.Prepared {
			st.Prepared[k] = v
		}
		for k, v := range snap.Running {
			st.Running[k] = v
		}
	}
	for i := range s.CQL.Questions {
		q := s.CQL.Questions[i]
		if r.questions == nil {
			r.questions = make(map[core.TaskID]*CQLQuestionState)
		}
		r.questions[q.Task] = &CQLQuestionState{Task: q.Task, Reserved: q.Reserved, Refunded: q.Refunded}
	}
	return r
}

// restoreInto rebuilds the pool state straight into the pool shards, one
// goroutine per shard: each adds the tasks, answers, leases and closes it
// owns, in snapshot order, so a shard iterates as the matching slice of
// the snapshotted pool did. Closed tasks are
// closed only after their answers are recorded, matching the original
// event order well enough for replay (answers for closed tasks were
// recorded before the close).
func (s *Snapshot) restoreInto(reps []*core.Pool) error {
	errs := make([]error, len(reps))
	var wg sync.WaitGroup
	for si, rep := range reps {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[si] = s.restoreSegment(rep, si, len(reps))
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// restoreSegment restores the share of the snapshot that segment si of n
// owns into p.
func (s *Snapshot) restoreSegment(p *core.Pool, si, n int) error {
	owns := func(id core.TaskID) bool { return core.ShardIndex(id, n) == si }
	for i := range s.Tasks {
		if !owns(s.Tasks[i].ID) {
			continue
		}
		t := s.Tasks[i].task()
		if _, err := p.Add(t); err != nil {
			return fmt.Errorf("durable: snapshot task %d: %w", t.ID, err)
		}
	}
	for i := range s.Answers {
		if !owns(s.Answers[i].Task) {
			continue
		}
		if err := p.Record(s.Answers[i].answer()); err != nil {
			return fmt.Errorf("durable: snapshot answer: %w", err)
		}
	}
	for i := range s.Leases {
		l := &s.Leases[i]
		if !owns(l.Task) {
			continue
		}
		if err := p.Lease(l.Task, l.Worker, l.deadline()); err != nil {
			return fmt.Errorf("durable: snapshot lease: %w", err)
		}
	}
	for _, id := range s.Closed {
		if owns(id) {
			p.Close(id)
		}
	}
	return nil
}

// writeSnapshot atomically replaces dir/pool.snap.
func writeSnapshot(dir string, s *Snapshot) error {
	data, err := json.Marshal(s)
	if err != nil {
		return fmt.Errorf("durable: encoding snapshot: %w", err)
	}
	tmp, err := os.CreateTemp(dir, snapName+".tmp-*")
	if err != nil {
		return fmt.Errorf("durable: snapshot temp file: %w", err)
	}
	tmpName := tmp.Name()
	cleanup := func(err error) error {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		return cleanup(fmt.Errorf("durable: writing snapshot: %w", err))
	}
	if err := tmp.Sync(); err != nil {
		return cleanup(fmt.Errorf("durable: syncing snapshot: %w", err))
	}
	if err := tmp.Close(); err != nil {
		return cleanup(fmt.Errorf("durable: closing snapshot: %w", err))
	}
	if err := os.Rename(tmpName, filepath.Join(dir, snapName)); err != nil {
		return cleanup(fmt.Errorf("durable: publishing snapshot: %w", err))
	}
	// Sync the directory so the rename itself survives a power loss.
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		d.Close()
	}
	return nil
}

// loadSnapshot reads dir/pool.snap; a missing file means no snapshot has
// been published yet (nil, nil).
func loadSnapshot(dir string) (*Snapshot, error) {
	data, err := os.ReadFile(filepath.Join(dir, snapName))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("durable: reading snapshot: %w", err)
	}
	var s Snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("durable: snapshot corrupt: %w", err)
	}
	if s.Format > snapshotFormat {
		return nil, fmt.Errorf("durable: snapshot format %d is newer than this binary supports (%d)", s.Format, snapshotFormat)
	}
	return &s, nil
}
