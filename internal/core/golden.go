package core

import (
	"sort"
	"sync"
)

// WorkerScreen implements golden-task (hidden test) worker elimination:
// the requester seeds the pool with tasks whose answers are known, tracks
// each worker's accuracy on them, and stops assigning work to workers
// whose golden accuracy falls below a threshold.
//
// This is the "worker elimination" arm of quality control in the survey
// taxonomy, complementary to truth inference (which reweights rather than
// removes workers).
//
// WorkerScreen is safe for concurrent use: Observe and the accuracy
// queries serialize on an internal mutex, so serving handlers may screen
// and score workers from many goroutines. The policy fields
// (MinObservations, MinAccuracy) must not be changed after the screen is
// shared between goroutines.
type WorkerScreen struct {
	// MinObservations is how many golden answers must be seen before a
	// worker can be eliminated (avoids firing good workers on one slip).
	MinObservations int
	// MinAccuracy is the golden-task accuracy below which a worker is
	// eliminated.
	MinAccuracy float64

	mu      sync.Mutex
	correct map[string]int
	total   map[string]int
}

// NewWorkerScreen returns a screen with the given elimination policy.
func NewWorkerScreen(minObs int, minAcc float64) *WorkerScreen {
	if minObs < 1 {
		minObs = 1
	}
	return &WorkerScreen{
		MinObservations: minObs,
		MinAccuracy:     minAcc,
		correct:         make(map[string]int),
		total:           make(map[string]int),
	}
}

// Observe records the outcome of one golden task for the worker. It
// reports whether this observation newly eliminated the worker (false when
// the worker was already eliminated or is still in good standing), so
// callers can journal or log the elimination transition.
func (s *WorkerScreen) Observe(worker string, correct bool) (newlyEliminated bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	before := s.eliminatedLocked(worker)
	s.total[worker]++
	if correct {
		s.correct[worker]++
	}
	return !before && s.eliminatedLocked(worker)
}

// ScreenTally is one worker's golden-task record, exported for snapshots.
type ScreenTally struct {
	Correct int `json:"correct"`
	Total   int `json:"total"`
}

// Export returns a copy of every observed worker's tally, for durability
// snapshots. Eliminations are derived state and are not part of the
// export: restoring the tallies restores them exactly.
func (s *WorkerScreen) Export() map[string]ScreenTally {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]ScreenTally, len(s.total))
	for w, n := range s.total {
		out[w] = ScreenTally{Correct: s.correct[w], Total: n}
	}
	return out
}

// Restore overwrites the screen's tallies with a recovered export. The
// elimination policy (MinObservations, MinAccuracy) is configuration, not
// state, and is left untouched. Recovery only — call before the screen is
// shared between goroutines.
func (s *WorkerScreen) Restore(tallies map[string]ScreenTally) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.correct = make(map[string]int, len(tallies))
	s.total = make(map[string]int, len(tallies))
	for w, t := range tallies {
		s.correct[w] = t.Correct
		s.total[w] = t.Total
	}
}

// Accuracy returns the worker's observed golden accuracy and the number of
// observations. A worker never observed has accuracy 1 (benefit of the
// doubt) and count 0.
func (s *WorkerScreen) Accuracy(worker string) (float64, int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.accuracyLocked(worker)
}

func (s *WorkerScreen) accuracyLocked(worker string) (float64, int) {
	n := s.total[worker]
	if n == 0 {
		return 1, 0
	}
	return float64(s.correct[worker]) / float64(n), n
}

// Eliminated reports whether the worker has enough observations and too
// low an accuracy to keep working.
func (s *WorkerScreen) Eliminated(worker string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.eliminatedLocked(worker)
}

func (s *WorkerScreen) eliminatedLocked(worker string) bool {
	acc, n := s.accuracyLocked(worker)
	return n >= s.MinObservations && acc < s.MinAccuracy
}

// EliminatedWorkers returns the sorted ids of all eliminated workers.
func (s *WorkerScreen) EliminatedWorkers() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []string
	for w := range s.total {
		if s.eliminatedLocked(w) {
			out = append(out, w)
		}
	}
	sort.Strings(out)
	return out
}
