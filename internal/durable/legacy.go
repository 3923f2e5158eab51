package durable

import (
	"encoding/json"
	"fmt"
	"math"

	"repro/internal/core"
)

// The readers of the data-directory formats nothing writes any more: JSON
// WAL records and the format-1 (JSON) pool.snap. Open replays a directory
// holding either through them and then checkpoints it, so it leaves Open
// in the current format and these run once per directory. The steady-state
// decode, merge and apply code handles binary records only.

// legacyJSON reports whether a WAL record payload or a pool.snap file is
// JSON: no binary record tag and no format-2 header starts with '{'.
func legacyJSON(data []byte) bool { return len(data) > 0 && data[0] == '{' }

// decodeLegacyEvent decodes one JSON WAL record into ev, replacing whatever
// ev held. A worker_eliminated record decodes like any other and folds to
// nothing: replay derives eliminations from the tallies.
func decodeLegacyEvent(payload []byte, ev *Event) error {
	*ev = Event{}
	return json.Unmarshal(payload, ev)
}

// Snapshot is a format-1 snapshot, the one JSON document that builds
// before format 2 wrote to pool.snap: the pool and the cross-task state as
// of LastSeq. Open still reads it, so their data directories open
// unchanged, and rewrites the directory as format 2.
type Snapshot struct {
	Format      int                         `json:"format"`
	LastSeq     uint64                      `json:"last_seq"`
	Tasks       []TaskRecord                `json:"tasks"`
	Closed      []core.TaskID               `json:"closed,omitempty"`
	Answers     []AnswerRecord              `json:"answers,omitempty"`
	Leases      []LeaseRecord               `json:"leases,omitempty"`
	BudgetSpent float64                     `json:"budget_spent"`
	Screen      map[string]core.ScreenTally `json:"screen,omitempty"`
	CQL         *CQLSnapshot                `json:"cql,omitempty"`
}

// decodeFormat1 decodes a format-1 snapshot for a store of n shards; each
// shard then takes its share of the document in document order.
func decodeFormat1(data []byte, n int) (*snapCross, restoreFunc, error) {
	var snap Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return nil, nil, fmt.Errorf("durable: snapshot corrupt: %w", err)
	}
	if snap.Format > 1 {
		return nil, nil, fmt.Errorf("durable: snapshot corrupt: a JSON snapshot of format %d (only format 1 is JSON)", snap.Format)
	}
	cross := &snapCross{
		LastSeq:   snap.LastSeq,
		SpentBits: math.Float64bits(snap.BudgetSpent),
		Screen:    snap.Screen,
		CQL:       snap.CQL,
	}
	return cross, func(p *core.Pool, si int) error { return snap.restoreSegment(p, si, n) }, nil
}

// restoreSegment restores the share of the snapshot that segment si of n
// owns into p, in snapshot order, closing tasks only after their answers
// and leases are in.
func (s *Snapshot) restoreSegment(p *core.Pool, si, n int) error {
	owns := func(id core.TaskID) bool { return core.ShardIndex(id, n) == si }
	for i := range s.Tasks {
		if !owns(s.Tasks[i].ID) {
			continue
		}
		t := s.Tasks[i].task()
		if got, err := p.Add(t); err != nil {
			return fmt.Errorf("durable: snapshot task %d: %w", s.Tasks[i].ID, err)
		} else if got != s.Tasks[i].ID {
			return fmt.Errorf("durable: snapshot corrupt: task %d appears twice", s.Tasks[i].ID)
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
