//go:build race

package server

// raceEnabled reports whether the tests run under the race detector. Its
// sync.Pool drops a random share of Puts so that misuse shows, which makes
// any Get behind one allocate; allocation counts that pass through a pool
// (json.Marshal's encoder state, for one) are therefore only checked
// without it, as the standard library's tests do.
const raceEnabled = true
