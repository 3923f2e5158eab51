//go:build !race

package server

// raceEnabled reports whether the tests run under the race detector; see
// race_test.go.
const raceEnabled = false
