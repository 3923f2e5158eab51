package truth

import "sync"

// ResultKey identifies one cached inference result: the method name and
// the option-count group it was computed over. It is a small comparable
// struct rather than a formatted string so that the serving hot path can
// build a key per poll without allocating.
type ResultKey struct {
	Method string
	K      int
}

// CacheEntry is what the cache stores per key: the result, the pool
// version it was computed at, and — to make incremental recomputation
// possible — the Dataset it was computed over plus the per-shard version
// vector of the snapshot. A later refresh at a newer version can extend
// DS with only the answers appended since Shards (Dataset.AppendDelta)
// and seed EM from Res.Warm instead of rebuilding and re-estimating from
// scratch. DS and Shards may be left zero by callers that only want
// memoization.
type CacheEntry struct {
	// Version is the aggregate pool version the entry was computed at.
	Version uint64
	// Shards holds the per-shard versions of the snapshot (nil when the
	// producer does not track them; such entries never serve as delta
	// bases).
	Shards []uint64
	// Res is the inference result; never nil in a stored entry.
	Res *Result
	// DS is the dataset Res was computed over (nil when not retained).
	DS *Dataset
}

// ResultCache memoizes inference Results keyed by (method, option count)
// and a pool version number. EM-style inference is the expensive step of
// a results endpoint — O(iterations × answers) per call — while the
// answer set often does not change between polls. A caller that tracks a
// mutation counter (core.ShardedPool.Version) can reuse the previous
// Result whenever the version is unchanged, and when the version has
// moved it can still fetch the latest entry as the base for an
// incremental (delta + warm-start) recompute.
//
// ResultCache is safe for concurrent use. Cached Results and Datasets
// are shared, so callers must treat them as immutable.
type ResultCache struct {
	mu      sync.Mutex
	entries map[ResultKey]CacheEntry
}

// NewResultCache returns an empty cache.
func NewResultCache() *ResultCache {
	return &ResultCache{entries: make(map[ResultKey]CacheEntry)}
}

// Get returns the cached Result for key if it was stored at exactly the
// given version. A nil cache never hits (memoization disabled).
func (c *ResultCache) Get(key ResultKey, version uint64) (*Result, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if !ok || e.Version != version {
		return nil, false
	}
	return e.Res, true
}

// Latest returns the most recent entry for key regardless of version,
// for use as the base of an incremental recompute (the caller compares
// entry.Version/Shards against the current pool state). A nil cache
// never hits.
func (c *ResultCache) Latest(key ResultKey) (CacheEntry, bool) {
	if c == nil {
		return CacheEntry{}, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	return e, ok
}

// Put stores the entry for key, replacing any entry at an older or equal
// version. An entry older than what is already cached is dropped: with
// single-flight recomputes for different versions racing each other, a
// slow computation from version v must not clobber a completed one from
// v' > v, or pollers would see results go backwards. A nil cache drops
// the entry.
func (c *ResultCache) Put(key ResultKey, e CacheEntry) {
	if c == nil || e.Res == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if cur, ok := c.entries[key]; ok && cur.Version > e.Version {
		return
	}
	c.entries[key] = e
}

// Len returns the number of cached entries (one per key); 0 for a nil
// cache.
func (c *ResultCache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}
