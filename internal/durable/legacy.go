package durable

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"slices"
	"time"

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

// The pool mutation types of JSON records. The cross-task types are
// Record's.
const (
	EvTaskAdded      = "task_added"
	EvAnswerRecorded = "answer_recorded"
	EvAnswerBatch    = "answer_batch"
	EvTaskClosed     = "task_closed"
	EvLeaseIssued    = "lease_issued"
	EvLeaseExpired   = "lease_expired"
	// EvWorkerEliminated is an audit marker older builds journaled when a
	// golden-task observation tipped a worker over the elimination
	// threshold. It has no binary record and folds to nothing: replay
	// derives eliminations from the tallies.
	EvWorkerEliminated = "worker_eliminated"
)

// Event is one JSON WAL record, the record format of builds before binary
// records. Cost is an answer's charge or a batch's total; Goldens is
// index-aligned with Answers.
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
	Session string         `json:"session,omitempty"`
	Query   string         `json:"query,omitempty"`
	Name    string         `json:"name,omitempty"`
	Src     string         `json:"src,omitempty"`
	Status  string         `json:"status,omitempty"`
}

// TaskRecord is the JSON form of a core.Task. Payload (operator-specific
// context) was never persisted.
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

func (r *TaskRecord) task() *core.Task {
	t := &core.Task{
		ID: r.ID, Kind: core.TaskKind(r.Kind), Question: r.Question, Options: r.Options,
		Difficulty: r.Difficulty, Golden: r.Golden,
		GroundTruth: r.GroundTruth, GroundTruthText: r.GroundTruthText,
		GroundTruthScore: r.GroundTruthScore,
	}
	if len(t.Options) == 0 {
		t.Options = nil // as a binary record decodes
	}
	return t
}

// AnswerRecord is the JSON form of a core.Answer.
type AnswerRecord struct {
	Task      core.TaskID `json:"task"`
	Worker    string      `json:"worker"`
	Option    int         `json:"option"`
	Text      string      `json:"text,omitempty"`
	Score     float64     `json:"score,omitempty"`
	Submitted float64     `json:"sub,omitempty"`
	Latency   float64     `json:"lat,omitempty"`
}

// LeaseRecord is the JSON form of a core.Lease; the deadline is absolute
// wall-clock nanoseconds.
type LeaseRecord struct {
	Task     core.TaskID `json:"task"`
	Worker   string      `json:"worker"`
	Deadline int64       `json:"deadline"`
}

func (r *LeaseRecord) lease() core.Lease {
	return core.Lease{Task: r.Task, Worker: r.Worker, Deadline: time.Unix(0, r.Deadline)}
}

// errNoBody marks a JSON pool record without the task, answer or lease its
// type carries.
var errNoBody = errors.New("a JSON record without its body")

// decodeLegacyRecord decodes one JSON WAL record into rec, replacing
// whatever rec held, with the fields a binary record of its type would
// decode to. A worker_eliminated record decodes to a cross-task record of
// that type, which folds to nothing.
func decodeLegacyRecord(payload []byte, rec *Record) error {
	var ev Event
	if err := json.Unmarshal(payload, &ev); err != nil {
		return err
	}
	*rec = Record{Seq: ev.Seq}
	m := &rec.Mut
	switch ev.Type {
	case EvTaskAdded:
		if ev.Task == nil {
			return errNoBody
		}
		m.Kind, m.Task = core.MutAddTask, ev.Task.task()
	case EvAnswerRecorded, EvAnswerBatch:
		m.Kind, m.Batch, m.Cost = core.MutAnswers, ev.Type == EvAnswerBatch, ev.Cost
		goldens := ev.Goldens
		if !m.Batch {
			if ev.Answer == nil {
				return errNoBody
			}
			ev.Answers, goldens = []AnswerRecord{*ev.Answer}, []*bool{ev.Golden}
		}
		m.Answers = make([]core.Answer, len(ev.Answers))
		for i := range ev.Answers {
			m.Answers[i] = core.Answer(ev.Answers[i])
			if i < len(goldens) && goldens[i] != nil {
				if m.Golden == nil {
					m.Golden = make([]*bool, len(m.Answers))
				}
				m.Golden[i] = goldens[i]
			}
		}
	case EvTaskClosed:
		m.Kind, m.ID = core.MutClose, ev.TaskID
	case EvLeaseIssued:
		if ev.Lease == nil {
			return errNoBody
		}
		m.Kind, m.Leases = core.MutLease, []core.Lease{ev.Lease.lease()}
	case EvLeaseExpired:
		m.Kind, m.Leases = core.MutExpire, make([]core.Lease, len(ev.Leases))
		for i := range ev.Leases {
			m.Leases[i] = ev.Leases[i].lease()
		}
	case EvWorkerEliminated:
		rec.Type = ev.Type
	default:
		if ev.Type == "" || !slices.Contains(crossTypes[:], ev.Type) {
			return fmt.Errorf("a JSON record of unknown type %q", ev.Type)
		}
		rec.Type, rec.Amount, rec.TaskID = ev.Type, ev.Amount, ev.TaskID
		rec.Session, rec.Query, rec.Name, rec.Src, rec.Status = ev.Session, ev.Query, ev.Name, ev.Src, ev.Status
		// Keep only the fields the type's binary record carries.
		return decodeRecord(appendRecord(nil, rec), rec, nil)
	}
	return nil
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
	// The pool part as mutations, in the order that restores it: closes
	// last, since a closed task's answers and leases were taken while it
	// was open.
	var muts []core.Mutation
	for i := range snap.Tasks {
		muts = append(muts, core.Mutation{Kind: core.MutAddTask, Task: snap.Tasks[i].task()})
	}
	for i := range snap.Answers {
		muts = append(muts, core.Mutation{Kind: core.MutAnswers, Answers: []core.Answer{core.Answer(snap.Answers[i])}})
	}
	for i := range snap.Leases {
		muts = append(muts, core.Mutation{Kind: core.MutLease, Leases: []core.Lease{snap.Leases[i].lease()}})
	}
	for _, id := range snap.Closed {
		muts = append(muts, core.Mutation{Kind: core.MutClose, ID: id})
	}
	return cross, func(p *core.Pool, si int) error {
		for i := range muts {
			owner := -1
			muts[i].Tasks(func(id core.TaskID) { owner = core.ShardIndex(id, n) })
			if owner != si {
				continue
			}
			if err := p.Replay(&muts[i]); err != nil {
				return fmt.Errorf("durable: snapshot: %w", err)
			}
		}
		return nil
	}, nil
}
