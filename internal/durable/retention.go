package durable

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
)

// The retention reader: what Open reads of the formats builds up to
// 41542c1 wrote, in which money was float64 — the retired WAL tags (see
// codec.go) and format-2 snapshots. This build writes neither; under
// DESIGN.md's retention rule the reader is deleted at the next re-anchor,
// together with the retired tags, EvBudgetCharged/EvBudgetRefunded and
// snapshot format 2.

// errFractionalMoney fails Open on a directory holding money this build
// cannot count: an amount in a retired WAL record or a format-2 pool.snap
// that is not a whole, non-negative number of units, or a retired answer
// record whose cost is not its answer count. Open raises it before it
// truncates or writes anything, never as a decode failure: recovery cuts
// an undecodable record as a torn tail, which would delete acked answers.
// Commit 41542c1 is the last build that reads such a directory.
var errFractionalMoney = errors.New("durable: the data directory holds budget amounts that are not whole units, " +
	"which this build does not read; commit 41542c1 is the last build that reads it")

// floatUnits converts a float amount to units, reporting whether it was a
// whole, non-negative number that fits an int64 (NaN is not).
func floatUnits(f float64) (int64, bool) {
	if !(f >= 0 && f < math.MaxInt64) || f != math.Trunc(f) {
		return 0, false
	}
	return int64(f), true
}

// decodeCross2 decodes a format-2 cross-task section, whose spend is
// float64 bits and whose question ledger is in floats, into the format-3
// one, refusing money that is not whole units with errFractionalMoney: a
// float that is not an integer fails to decode into the int64 fields.
func decodeCross2(payload []byte) (*snapCross, error) {
	var c2 struct {
		snapCross
		SpentFloatBits uint64 `json:"spent_bits"`
	}
	err := json.Unmarshal(payload, &c2)
	var typeErr *json.UnmarshalTypeError
	if errors.As(err, &typeErr) && typeErr.Struct == "CQLQuestionState" {
		err = errFractionalMoney
	}
	var whole bool
	c2.Spent, whole = floatUnits(math.Float64frombits(c2.SpentFloatBits))
	if c2.CQL != nil {
		for _, q := range c2.CQL.Questions {
			whole = whole && q.Reserved >= 0 && q.Refunded >= 0
		}
	}
	switch {
	case err == errFractionalMoney || err == nil && !whole:
		return nil, fmt.Errorf("%w (%s)", errFractionalMoney, snapName)
	case err != nil:
		return nil, fmt.Errorf("durable: snapshot corrupt: cross-task section: %w", err)
	}
	return &c2.snapCross, nil
}
