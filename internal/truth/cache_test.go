package truth

import (
	"sync"
	"testing"
)

func TestResultCacheVersionKeying(t *testing.T) {
	c := NewResultCache()
	key := ResultKey{Method: "mv", K: 2}
	r1 := &Result{Method: "mv"}
	c.Put(key, CacheEntry{Version: 7, Res: r1})
	if got, ok := c.Get(key, 7); !ok || got != r1 {
		t.Fatal("exact-version lookup missed")
	}
	if _, ok := c.Get(key, 8); ok {
		t.Fatal("stale version served")
	}
	if _, ok := c.Get(ResultKey{Method: "ds", K: 2}, 7); ok {
		t.Fatal("wrong key served")
	}
	// A newer Put replaces the entry for the same key.
	r2 := &Result{Method: "mv"}
	c.Put(key, CacheEntry{Version: 8, Res: r2})
	if _, ok := c.Get(key, 7); ok {
		t.Fatal("replaced entry still served at old version")
	}
	if got, ok := c.Get(key, 8); !ok || got != r2 {
		t.Fatal("replacement entry missed")
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}
}

func TestResultCacheLatestAndMonotonicPut(t *testing.T) {
	c := NewResultCache()
	key := ResultKey{Method: "onecoin", K: 3}
	if _, ok := c.Latest(key); ok {
		t.Fatal("empty cache served a latest entry")
	}
	r8 := &Result{Method: "OneCoinEM"}
	c.Put(key, CacheEntry{Version: 8, Shards: []uint64{5, 3}, Res: r8})
	e, ok := c.Latest(key)
	if !ok || e.Res != r8 || e.Version != 8 {
		t.Fatalf("Latest = (%+v, %v), want version-8 entry", e, ok)
	}
	// A slow computation finishing late must not roll the cache back.
	c.Put(key, CacheEntry{Version: 7, Res: &Result{Method: "OneCoinEM"}})
	if e, _ := c.Latest(key); e.Version != 8 || e.Res != r8 {
		t.Fatal("older Put clobbered a newer entry")
	}
	// Same-version Put replaces (refresh of an equal snapshot).
	r8b := &Result{Method: "OneCoinEM"}
	c.Put(key, CacheEntry{Version: 8, Res: r8b})
	if e, _ := c.Latest(key); e.Res != r8b {
		t.Fatal("same-version Put did not replace")
	}
	// Entries without a result are dropped.
	c.Put(key, CacheEntry{Version: 99})
	if e, _ := c.Latest(key); e.Version != 8 {
		t.Fatal("nil-result Put was stored")
	}
}

func TestResultCacheNilDisablesMemoization(t *testing.T) {
	var c *ResultCache
	key := ResultKey{Method: "mv", K: 2}
	c.Put(key, CacheEntry{Version: 1, Res: &Result{}})
	if _, ok := c.Get(key, 1); ok {
		t.Fatal("nil cache served an entry")
	}
	if _, ok := c.Latest(key); ok {
		t.Fatal("nil cache served a latest entry")
	}
	if c.Len() != 0 {
		t.Fatalf("nil cache Len = %d", c.Len())
	}
}

func TestResultCacheConcurrentAccess(t *testing.T) {
	c := NewResultCache()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			key := ResultKey{Method: "mv", K: g % 4}
			for i := 0; i < 200; i++ {
				c.Put(key, CacheEntry{Version: uint64(i), Res: &Result{Method: "mv"}})
				if res, ok := c.Get(key, uint64(i)); ok && res == nil {
					t.Error("cache returned nil result on hit")
					return
				}
				if e, ok := c.Latest(key); ok && e.Res == nil {
					t.Error("cache returned nil latest result")
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if c.Len() != 4 {
		t.Fatalf("Len = %d, want 4", c.Len())
	}
}

// The serving hot path builds a ResultKey and probes the cache on every
// poll; both must stay allocation-free.
func TestResultCacheKeyZeroAlloc(t *testing.T) {
	c := NewResultCache()
	c.Put(ResultKey{Method: "ds", K: 4}, CacheEntry{Version: 3, Res: &Result{}})
	allocs := testing.AllocsPerRun(100, func() {
		if _, ok := c.Get(ResultKey{Method: "ds", K: 4}, 3); !ok {
			t.Fatal("lookup missed")
		}
	})
	if allocs != 0 {
		t.Fatalf("cache Get allocates %.1f per op, want 0", allocs)
	}
}

func BenchmarkResultCacheGet(b *testing.B) {
	c := NewResultCache()
	c.Put(ResultKey{Method: "ds", K: 4}, CacheEntry{Version: 3, Res: &Result{}})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, ok := c.Get(ResultKey{Method: "ds", K: 4}, 3); !ok {
			b.Fatal("lookup missed")
		}
	}
}
