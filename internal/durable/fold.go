package durable

import (
	"fmt"

	"repro/internal/core"
)

// What a journaled event means is defined here and nowhere else. Every
// event has up to two parts:
//
//   - a cross-task part (budget spend, golden-screen tallies, the CrowdQL
//     ledger), folded by Store.foldCross under the store mutex, and
//   - a pool part (tasks, answers, closes, leases), which the live pool
//     applies itself right after its journal hook appended the event, and
//     which recovery applies through foldPool to the pool shard that owns
//     each task — the shards the store then hands out as the live pool.
//
// The live append path calls foldCross for each event it appends; recovery
// calls it for every event in global sequence order on one goroutine and
// foldPool for each segment on that segment's own goroutine. Events were
// validated by the live pool before they were journaled, so a pool part
// the recovered pool refuses fails recovery, as a snapshot record the
// pool refuses does.

// foldCross folds the cross-task part of one event. Spend is a float sum
// and the CrowdQL ledger is order-dependent, so callers must present events
// in sequence order: the live path does by construction, recovery by
// merging the segment files before it folds.
func (s *Store) foldCross(ev *Event) {
	switch ev.Type {
	case EvTaskAdded, EvTaskClosed, EvLeaseIssued, EvLeaseExpired, EvWorkerEliminated:
		// Pool-only events, and the elimination audit marker (eliminations
		// are derived from the tallies): nothing cross-task to fold.
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	switch ev.Type {
	case EvAnswerRecorded:
		s.repSpent += ev.Cost
		if ev.Golden != nil {
			s.tallyLocked(ev.Worker, *ev.Golden)
		}
	case EvAnswerBatch:
		s.repSpent += ev.Cost
		for i := range ev.Goldens {
			if ev.Goldens[i] != nil && i < len(ev.Answers) {
				s.tallyLocked(ev.Answers[i].Worker, *ev.Goldens[i])
			}
		}
	case EvBudgetCharged:
		s.repSpent += ev.Amount
	case EvBudgetRefunded:
		s.repSpent -= ev.Amount
		if s.repSpent < 0 {
			s.repSpent = 0
		}
	default:
		// CrowdQL session/question events fold into the cross-task replica;
		// the reservation events also move the durable spend, mirroring the
		// live gateway's charge/refund protocol.
		if s.repCQL.apply(ev) {
			s.repSpent += cqlSpendDelta(ev)
			if s.repSpent < 0 {
				s.repSpent = 0
			}
		}
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

// poolTasks calls yield with the task of every pool mutation the event
// carries — one task for most events, several for a batch or a lease
// sweep. Recovery routes an event to the segments owning these tasks.
func (ev *Event) poolTasks(yield func(core.TaskID)) {
	switch ev.Type {
	case EvTaskAdded:
		if ev.Task != nil {
			yield(ev.Task.ID)
		}
	case EvAnswerRecorded:
		if ev.Answer != nil {
			yield(ev.Answer.Task)
		}
	case EvAnswerBatch:
		for i := range ev.Answers {
			yield(ev.Answers[i].Task)
		}
	case EvTaskClosed:
		yield(ev.TaskID)
	case EvLeaseIssued:
		if ev.Lease != nil {
			yield(ev.Lease.Task)
		}
	case EvLeaseExpired:
		for i := range ev.Leases {
			yield(ev.Leases[i].Task)
		}
	}
}

// foldPool replays the pool part of one event into rep, shard si of n,
// taking only the entries whose task that shard owns. A batch or lease
// sweep journaled under another layout may span several current owners,
// and each takes its own share. It returns the first mutation rep refuses:
// the live pool validated every event before journaling it, so a refusal
// means the log does not describe a history the pool could have had, and
// recovery must not open a pool that silently differs from it.
func foldPool(rep *core.Pool, ev *Event, si, n int) error {
	owns := func(id core.TaskID) bool { return core.ShardIndex(id, n) == si }
	switch ev.Type {
	case EvTaskAdded:
		if ev.Task != nil && owns(ev.Task.ID) {
			if got, err := rep.Add(ev.Task.task()); err != nil {
				return err
			} else if got != ev.Task.ID {
				return fmt.Errorf("task %d added twice", ev.Task.ID)
			}
		}
	case EvAnswerRecorded:
		if ev.Answer != nil && owns(ev.Answer.Task) {
			return rep.ReplayAnswer(ev.Answer.answer())
		}
	case EvAnswerBatch:
		for i := range ev.Answers {
			if owns(ev.Answers[i].Task) {
				if err := rep.ReplayAnswer(ev.Answers[i].answer()); err != nil {
					return err
				}
			}
		}
	case EvTaskClosed:
		if owns(ev.TaskID) {
			rep.Close(ev.TaskID)
		}
	case EvLeaseIssued:
		if ev.Lease != nil && owns(ev.Lease.Task) {
			return rep.Lease(ev.Lease.Task, ev.Lease.Worker, ev.Lease.deadline())
		}
	case EvLeaseExpired:
		for i := range ev.Leases {
			if owns(ev.Leases[i].Task) {
				rep.ReleaseLease(ev.Leases[i].Task, ev.Leases[i].Worker)
			}
		}
	}
	return nil
}
