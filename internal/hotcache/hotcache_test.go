package hotcache

import (
	"fmt"
	"sync"
	"testing"
)

func fill(c *Cache, key, val string) {
	c.Fill([]byte(key), []byte(val), false, c.Snapshot([]byte(key)))
}

func TestFillGet(t *testing.T) {
	c := New(1 << 20)
	if _, _, ok := c.Get([]byte("k")); ok {
		t.Fatal("hit on empty cache")
	}
	fill(c, "k", "v1")
	v, neg, ok := c.Get([]byte("k"))
	if !ok || neg || string(v) != "v1" {
		t.Fatalf("Get = %q neg=%v ok=%v", v, neg, ok)
	}
	// The returned slice is a private copy.
	v[0] = 'X'
	if v2, _, _ := c.Get([]byte("k")); string(v2) != "v1" {
		t.Fatalf("cached value mutated through returned slice: %q", v2)
	}
}

func TestNegativeEntry(t *testing.T) {
	c := New(1 << 20)
	k := []byte("missing")
	c.Fill(k, nil, true, c.Snapshot(k))
	v, neg, ok := c.Get(k)
	if !ok || !neg || v != nil {
		t.Fatalf("negative Get = %q neg=%v ok=%v", v, neg, ok)
	}
	st := c.Stats()
	if st.CacheNegHits != 1 {
		t.Fatalf("neg_hits = %d", st.CacheNegHits)
	}
	// A write flips the negative entry invisible.
	c.Invalidate(k)
	if _, _, ok := c.Get(k); ok {
		t.Fatal("negative entry served after invalidation")
	}
}

func TestInvalidateHidesEntry(t *testing.T) {
	c := New(1 << 20)
	fill(c, "k", "old")
	c.Invalidate([]byte("k"))
	if _, _, ok := c.Get([]byte("k")); ok {
		t.Fatal("stale entry served after Invalidate")
	}
	// Refill under the new watermark works again.
	fill(c, "k", "new")
	if v, _, ok := c.Get([]byte("k")); !ok || string(v) != "new" {
		t.Fatalf("refill Get = %q %v", v, ok)
	}
	if st := c.Stats(); st.CacheInvalidations != 1 {
		t.Fatalf("invalidations = %d", st.CacheInvalidations)
	}
}

func TestStaleTicketFillRejected(t *testing.T) {
	c := New(1 << 20)
	k := []byte("k")
	ticket := c.Snapshot(k)
	// A write lands between the reader's snapshot and its fill: the value
	// the reader got from the engine may predate the write, so the fill
	// must be dropped.
	c.Invalidate(k)
	c.Fill(k, []byte("stale"), false, ticket)
	if _, _, ok := c.Get(k); ok {
		t.Fatal("fill with a stale ticket was served")
	}
	if st := c.Stats(); st.CacheFills != 0 || st.CacheEntries != 0 {
		t.Fatalf("stale fill was inserted: %+v", st)
	}
}

func TestBudgetEviction(t *testing.T) {
	c := New(numShards * 1024) // 1 KiB per shard
	for i := 0; i < 2000; i++ {
		k := []byte(fmt.Sprintf("key-%05d", i))
		c.Fill(k, make([]byte, 100), false, c.Snapshot(k))
	}
	st := c.Stats()
	if st.CacheBytes > numShards*1024 {
		t.Fatalf("cache over budget: %d bytes", st.CacheBytes)
	}
	if st.CacheEvictions == 0 {
		t.Fatal("no evictions despite overflow")
	}
	if st.CacheEntries == 0 {
		t.Fatal("cache emptied itself")
	}
}

func TestOversizedFillSkipped(t *testing.T) {
	c := New(numShards * 1024) // 1 KiB per shard
	for i := 0; i < 64; i++ {
		k := []byte(fmt.Sprintf("small-%03d", i))
		c.Fill(k, make([]byte, 64), false, c.Snapshot(k))
	}
	before := c.Stats()
	big := []byte("big")
	c.Fill(big, make([]byte, 4096), false, c.Snapshot(big))
	after := c.Stats()
	if _, _, ok := c.Get(big); ok {
		t.Fatal("oversized value cached")
	}
	if after.CacheEntries != before.CacheEntries || after.CacheEvictions != before.CacheEvictions {
		t.Fatalf("oversized fill churned the shard: before=%+v after=%+v", before, after)
	}
}

func TestClockSecondChance(t *testing.T) {
	c := New(numShards * 1024)
	// Land enough entries to force eviction, touching "hot" repeatedly —
	// its reference bit should keep it resident through clock passes.
	hot := []byte("hot-key")
	c.Fill(hot, make([]byte, 64), false, c.Snapshot(hot))
	for i := 0; i < 500; i++ {
		c.Get(hot)
		k := []byte(fmt.Sprintf("cold-%04d", i))
		c.Fill(k, make([]byte, 64), false, c.Snapshot(k))
	}
	if _, _, ok := c.Get(hot); !ok {
		t.Fatal("hot entry evicted despite constant references")
	}
}

func TestDeadEntriesReclaimed(t *testing.T) {
	c := New(numShards * 64 * 1024)
	// Invalidate-then-Get marks entries dead without running the clock
	// (the shard stays under budget); the ring must not grow unboundedly.
	for i := 0; i < 10000; i++ {
		k := []byte("churn-key")
		c.Fill(k, []byte("v"), false, c.Snapshot(k))
		c.Invalidate(k)
		c.Get(k) // observes the stale ticket, marks the entry dead
	}
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		if len(s.ring) > 2*len(s.m)+32 {
			t.Fatalf("shard %d ring grew unboundedly: ring=%d live=%d", i, len(s.ring), len(s.m))
		}
		s.mu.Unlock()
	}
}

func TestNilCacheSafe(t *testing.T) {
	var c *Cache
	c.Fill([]byte("k"), []byte("v"), false, c.Snapshot([]byte("k")))
	c.Invalidate([]byte("k"))
	if _, _, ok := c.Get([]byte("k")); ok {
		t.Fatal("nil cache returned a hit")
	}
	if st := c.Stats(); st != (Stats{}) {
		t.Fatalf("nil cache stats nonzero: %+v", st)
	}
}

func TestShardDistribution(t *testing.T) {
	c := New(64 << 20)
	const n = 1 << 14
	for i := 0; i < n; i++ {
		k := []byte(fmt.Sprintf("user%012d", i))
		c.Fill(k, []byte("v"), false, c.Snapshot(k))
	}
	st := c.Stats()
	if st.CacheEntries != n {
		t.Fatalf("entries = %d, want %d", st.CacheEntries, n)
	}
	avg := n / numShards
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		got := len(s.m)
		s.mu.Unlock()
		if got < avg/2 || got > avg*2 {
			t.Errorf("shard %d holds %d entries, want within [%d,%d]", i, got, avg/2, avg*2)
		}
	}
}

// TestConcurrentCoherence hammers one key with racing fill/invalidate/get
// from many goroutines: after every writer's invalidation is visible, no
// Get may return a value older than the last write. Run with -race.
func TestConcurrentCoherence(t *testing.T) {
	c := New(1 << 20)
	k := []byte("contended")
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5000; i++ {
				ticket := c.Snapshot(k)
				c.Fill(k, []byte(fmt.Sprintf("v%d", i)), false, ticket)
				c.Get(k)
			}
		}()
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5000; i++ {
				c.Invalidate(k)
			}
		}()
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20000; i++ {
				c.Get(k)
			}
		}()
	}
	wg.Wait()

	// Final determinism check: one last invalidate makes everything
	// currently cached invisible.
	c.Invalidate(k)
	if _, _, ok := c.Get(k); ok {
		t.Fatal("entry served past a final invalidation")
	}
}
