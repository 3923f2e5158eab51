//go:build race

package cql

// raceEnabled reports whether the tests run under the race detector, which
// adds allocations of its own; allocation counts are only checked without
// it.
const raceEnabled = true
