package core

import (
	"context"
	"errors"
)

// MutationKind names what a Mutation does to the pool; the zero kind
// does nothing and checks as an error.
type MutationKind uint8

// The mutation kinds, each with the fields it sets.
const (
	MutAddTask MutationKind = 1 + iota // registers Task
	MutAnswers                         // records Answers
	MutClose                           // closes task ID
	MutLease                           // issues or extends Leases[0]
	MutExpire                          // reclaims Leases, a sweep's due leases
)

// Mutation is one change to the pool, in the one shape every layer uses: a
// ShardedPool shard builds it, checks it, hands it to its Journal and
// applies it; the durable layer encodes it as a WAL record; recovery
// decodes the record and hands it to Pool.Replay, which checks and applies
// it with the same two functions. Only the fields of its Kind are set.
type Mutation struct {
	Kind MutationKind
	// Batch marks the answers of one RecordBatch call, journaled as one
	// batch record even when there is one; the pool applies both alike.
	Batch bool
	ID    TaskID
	// Task is kept by the pool; tasks are immutable once added.
	Task *Task
	// Answers are recorded in order, at one budget unit each. Golden holds
	// their golden grades, index-aligned (nil for an ungraded answer), or
	// is nil when none was graded; the pool never reads it.
	Answers []Answer
	Golden  []*bool
	// Leases are in (task, worker) order.
	Leases []Lease
}

// Tasks calls yield with the task of every change m makes: one task for
// most mutations, several for a batch or a lease sweep.
func (m *Mutation) Tasks(yield func(TaskID)) {
	switch m.Kind {
	case MutAddTask:
		yield(m.Task.ID)
	case MutAnswers:
		for i := range m.Answers {
			yield(m.Answers[i].Task)
		}
	case MutClose:
		yield(m.ID)
	case MutLease, MutExpire:
		for i := range m.Leases {
			yield(m.Leases[i].Task)
		}
	}
}

// Journal is the write-ahead hook of a ShardedPool's shards. Every
// mutation runs check → Append → apply under the owning shard's write
// lock: Append is called after the mutation passed the platform rules and
// before it touches memory, and an Append error leaves the pool exactly as
// it was (the caller gets the error wrapped in ErrNotJournaled). The
// journal therefore holds the pool's mutations in the order the pool
// applied them, and the pool never holds a mutation its journal refused.
//
// Implementations must be fast — buffer and append only, never fsync —
// because they run inside the pool's critical section. Append returns the
// record's journal position, so the serving layer can wait for it to
// reach stable storage after the lock is released; ctx carries the
// request's trace, nothing else. Nothing changes m or its slices after
// the call.
type Journal interface {
	Append(ctx context.Context, m *Mutation) (pos uint64, err error)
}

// ErrNotJournaled wraps the error of a mutation the journal refused. The
// mutation was valid and was not applied.
var ErrNotJournaled = errors.New("core: mutation not journaled")
