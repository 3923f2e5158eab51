package server

import (
	"fmt"

	"repro/internal/durable"
)

// WithDurability attaches a durable.Store. The server then serves the
// store's own pool — the one durable.Open recovered, whose every mutation
// is appended to the write-ahead log before it is applied — with one shard
// per WAL segment, and /api/answer acknowledges a submission only after
// its record's durability wait (under FsyncAlways, the fsync). The server
// takes ownership of the store — Close flushes, snapshots, and closes it.
//
// New finishes the boot: the budget and the worker screen are set to the
// spend and golden tallies the journal adds up to, and the tasks of New's
// pool argument, if any, are added to the store's pool (and so journaled).
// That is how a fresh data directory is seeded; over a directory that
// already holds tasks pass nil or an empty pool — a second task set on top
// of a recovered one is refused rather than guessed at.
//
// A server built without this option runs the exact in-memory handler
// chain: the only durability cost on that path is one nil check.
func WithDurability(store *durable.Store) Option {
	return func(s *Server) { s.store = store }
}

// adoptStore makes the store's pool the served pool, with the budget and
// screen the journal adds up to; New then seeds it. See WithDurability.
func (s *Server) adoptStore() error {
	if s.shards != 0 && max(s.shards, 1) != s.store.Segments() {
		return fmt.Errorf("server: WithShards(%d) over a store with %d WAL segments: a durable server has one shard per segment",
			s.shards, s.store.Segments())
	}
	s.cpool = s.store.Pool()
	spent, tallies := s.store.Ledger()
	s.budget.RestoreSpent(spent)
	if s.screen != nil {
		s.screen.Restore(tallies)
	}
	return nil
}
