package core

import (
	"errors"
	"fmt"
	"sync/atomic"
)

// ErrBudgetExhausted is returned by Budget.Charge when the remaining budget
// cannot cover a charge. Callers detect it with errors.Is.
var ErrBudgetExhausted = errors.New("core: budget exhausted")

// Budget tracks spending for a crowdsourcing run in whole units: an answer
// costs one unit, which preserves every ratio of the cost-control results
// the survey literature reports in task counts.
//
// Budget is safe for concurrent use: the spent counter is an atomic int64,
// so many serving goroutines can charge and refund without external
// locking, and the spend is exactly the units charged minus the units
// refunded (a refund clamps at zero). The total is fixed at construction. TryCharge/Refund form the
// reservation protocol for operations that may still fail after being
// paid for: reserve a unit up front, and give it back if the downstream
// step (e.g. Pool.Record) rejects the work — no unit is ever spent on a
// rejected answer.
type Budget struct {
	total int64
	spent atomic.Int64
}

// NewBudget returns a budget with the given total capacity in units. A
// non-positive total means unlimited.
func NewBudget(total int64) *Budget { return &Budget{total: total} }

// Unlimited returns a budget that never exhausts.
func Unlimited() *Budget { return &Budget{total: 0} }

// TryCharge atomically records a spend of units if the remaining budget
// covers it, reporting whether the charge was applied. Negative amounts
// are never applied. It is a compare-and-swap loop because the check
// against the total and the add must be one step.
func (b *Budget) TryCharge(units int64) bool {
	if units < 0 {
		return false
	}
	for {
		spent := b.spent.Load()
		if b.total > 0 && spent+units > b.total {
			return false
		}
		if b.spent.CompareAndSwap(spent, spent+units) {
			return true
		}
	}
}

// Charge records a spend of units. It returns ErrBudgetExhausted (wrapped
// with context) if the charge would exceed the total; the charge is not
// applied in that case.
func (b *Budget) Charge(units int64) error {
	if units < 0 {
		return fmt.Errorf("core: negative charge %d", units)
	}
	if !b.TryCharge(units) {
		return fmt.Errorf("charging %d with %d remaining: %w",
			units, b.Remaining(), ErrBudgetExhausted)
	}
	return nil
}

// Refund atomically returns units to the budget, undoing an earlier charge
// whose work was rejected. The spent counter never goes below zero, so
// Refund is a compare-and-swap too: an add followed by a clamp would let a
// charge land on the transient negative count and vanish with the clamp.
// Non-positive amounts are ignored.
func (b *Budget) Refund(units int64) {
	if units <= 0 {
		return
	}
	for {
		spent := b.spent.Load()
		if b.spent.CompareAndSwap(spent, max(spent-units, 0)) {
			return
		}
	}
}

// Spent returns the units spent so far.
func (b *Budget) Spent() int64 { return b.spent.Load() }

// RestoreSpent overwrites the spent counter with a recovered value,
// clamped at zero. It exists for crash recovery only — a durability layer
// replays the journal, computes the durable spend, and seeds a fresh
// budget with it before the budget is shared between goroutines.
func (b *Budget) RestoreSpent(units int64) {
	b.spent.Store(max(units, 0))
}

// Remaining returns the units left (0 once a restored spend passed the
// total), or -1 when the budget is unlimited. Under concurrency it is only
// a hint: another goroutine may charge in between; use TryCharge for an
// atomic check-and-spend.
func (b *Budget) Remaining() int64 {
	if b.total <= 0 {
		return -1
	}
	return max(b.total-b.Spent(), 0)
}
