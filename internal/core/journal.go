package core

import (
	"context"
	"errors"
)

// Journal is the write-ahead hook of a ShardedPool's shards. Every mutation
// — task add, answer, answer batch, close, lease issue, lease expiry — runs
// validate → journal → apply under the owning shard's write lock: the hook is
// called after the mutation passed the platform rules and before it
// touches memory, and a hook error leaves the pool exactly as it was (the
// caller gets the error wrapped in ErrNotJournaled). The journal therefore
// holds the pool's mutations in the order the pool applied them, and the
// pool never holds a mutation its journal refused.
//
// Implementations must be fast — buffer and append only, never fsync —
// because they run inside the pool's critical section. The answer hooks
// return the record's journal position so the serving layer can wait for
// it to reach stable storage after the lock is released.
type Journal interface {
	// TaskAdded journals a validated task. The pointer is shared with the
	// pool; tasks are immutable once added.
	TaskAdded(t *Task) error
	// AnswerRecorded journals one accepted answer with its charge. ctx
	// carries the request's trace, nothing else.
	AnswerRecorded(ctx context.Context, a Answer, c Charge) (pos uint64, err error)
	// AnswerBatch journals the accepted answers of one RecordBatch call as a
	// single record; cs is index-aligned with as.
	AnswerBatch(as []Answer, cs []Charge) (pos uint64, err error)
	// TaskClosed journals the close of an open task.
	TaskClosed(id TaskID) error
	// LeaseIssued journals a lease about to be recorded or extended.
	LeaseIssued(l Lease) error
	// LeasesExpired journals the leases a sweep is about to reclaim, in
	// (task, worker) order.
	LeasesExpired(ls []Lease) error
}

// Charge is what the serving layer decided about an answer before handing
// it to the pool, journaled on the answer's record: the budget units it
// was charged and, for a golden task, whether the worker got it right
// (nil otherwise). The pool itself never reads it.
type Charge struct {
	Cost   float64
	Golden *bool
}

// ErrNotJournaled wraps the error of a mutation the journal refused. The
// mutation was valid and was not applied.
var ErrNotJournaled = errors.New("core: mutation not journaled")
