//go:build race

package core

// raceEnabled reports whether the tests run under the race detector, which
// instruments allocations; allocation counts are therefore only checked
// without it.
const raceEnabled = true
