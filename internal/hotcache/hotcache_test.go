package hotcache

import (
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"p2kvs/internal/kv"
	"p2kvs/internal/raceflag"
)

func fill(c *Cache, key, val string) {
	c.Fill([]byte(key), []byte(val), false, c.Snapshot([]byte(key)))
}

func put(key, val string) kv.BatchOp {
	return kv.BatchOp{Kind: kv.OpPut, Key: []byte(key), Value: []byte(val)}
}

func del(key string) kv.BatchOp { return kv.BatchOp{Kind: kv.OpDelete, Key: []byte(key)} }

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
	if st := c.Stats(); st.CacheNegHits != 1 {
		t.Fatalf("neg_hits = %d", st.CacheNegHits)
	}
}

// get asserts what the cache serves for key: want == "" is a negative hit.
func get(t *testing.T, c *Cache, key, want string) {
	t.Helper()
	v, neg, ok := c.Get([]byte(key))
	if !ok || neg != (want == "") || string(v) != want {
		t.Fatalf("Get(%s) = %q neg=%v ok=%v, want %q", key, v, neg, ok, want)
	}
}

func TestUpdateRewritesResidentEntry(t *testing.T) {
	c := New(1 << 20)
	fill(c, "k", "old-value")
	before := c.Stats()
	c.Update(put("k", "new"), false)
	get(t, c, "k", "new")
	// put -> delete -> put, through a negative entry, and growing past the
	// old buffer on the way back.
	c.Update(del("k"), false)
	get(t, c, "k", "")
	c.Update(put("k", "a-longer-value-than-before"), false)
	get(t, c, "k", "a-longer-value-than-before")
	st := c.Stats()
	if st.CacheInvalidations != 3 || st.CacheUpdates != 3 || st.CacheFills != before.CacheFills || st.CacheEntries != 1 {
		t.Fatalf("stats after three updates: %+v", st)
	}
	if want := cost(1, len("a-longer-value-than-before")); st.CacheBytes != want {
		t.Fatalf("resident bytes = %d, want %d", st.CacheBytes, want)
	}
	// A negative entry a put turns positive.
	c.Fill([]byte("absent"), nil, true, c.Snapshot([]byte("absent")))
	c.Update(put("absent", "now-here"), false)
	get(t, c, "absent", "now-here")
}

func TestUpdateNeverInserts(t *testing.T) {
	c := New(1 << 20)
	c.Update(put("cold", "v"), false)
	c.Update(del("colder"), false)
	if _, _, ok := c.Get([]byte("cold")); ok {
		t.Fatal("a write inserted a key no read had made resident")
	}
	if st := c.Stats(); st.CacheEntries != 0 || st.CacheUpdates != 0 || st.CacheInvalidations != 2 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestUpdateDrop(t *testing.T) {
	c := New(1 << 20)
	fill(c, "k", "old")
	c.Update(del("k"), true) // e.g. a purge of a key that lives on elsewhere
	if _, _, ok := c.Get([]byte("k")); ok {
		t.Fatal("entry served after a dropping update")
	}
	if st := c.Stats(); st.CacheEntries != 0 || st.CacheBytes != 0 || st.CacheUpdates != 0 || st.CacheInvalidations != 1 {
		t.Fatalf("stats: %+v", st)
	}
	// Refill works again.
	fill(c, "k", "new")
	get(t, c, "k", "new")
}

func TestUpdateOversizedValueDrops(t *testing.T) {
	c := New(numShards * 1024) // 1 KiB per shard
	fill(c, "k", "small")
	c.Update(kv.BatchOp{Kind: kv.OpPut, Key: []byte("k"), Value: make([]byte, 4096)}, false)
	if st := c.Stats(); st.CacheEntries != 0 || st.CacheBytes != 0 {
		t.Fatalf("an entry that can never fit stayed: %+v", st)
	}
}

func TestFillGate(t *testing.T) {
	c := New(1 << 20)
	k := []byte("k")
	ticket := c.Snapshot(k)
	// A write lands between the reader's snapshot and its fill: the value
	// the reader got from the engine may predate the write, so the fill
	// must be dropped.
	c.Update(put("k", "written"), false)
	c.Fill(k, []byte("stale"), false, ticket)
	if _, _, ok := c.Get(k); ok {
		t.Fatal("fill with a pre-write ticket was served")
	}
	if st := c.Stats(); st.CacheFills != 0 || st.CacheEntries != 0 {
		t.Fatalf("stale fill was inserted: %+v", st)
	}
	// A ticket taken after the write is good.
	c.Fill(k, []byte("written"), false, c.Snapshot(k))
	get(t, c, "k", "written")
	// ...and a fill that beat a write is overwritten by it.
	c.Update(put("k", "newer"), false)
	get(t, c, "k", "newer")
}

// colliding returns a key other than k on k's stripe.
func colliding(k string) string {
	for i := 0; ; i++ {
		n := fmt.Sprintf("neighbour-%d", i)
		if n != k && hash([]byte(n))&stripeMask == hash([]byte(k))&stripeMask {
			return n
		}
	}
}

// TestStripeNeighbourKeepsBeingServed: a write costs the keys sharing its
// stripe a rejected fill at most, never a resident entry.
func TestStripeNeighbourKeepsBeingServed(t *testing.T) {
	c := New(1 << 20)
	n := colliding("k")
	fill(c, n, "neighbour")
	ticket := c.Snapshot([]byte(n))
	c.Update(put("k", "v"), false)
	get(t, c, n, "neighbour")
	c.Fill([]byte(n), []byte("late"), false, ticket) // the collision's whole price
	get(t, c, n, "neighbour")
}

// sameShard returns a key other than k in k's shard and off its stripe.
func sameShard(k string) string {
	for i := 0; ; i++ {
		n := fmt.Sprintf("shard-neighbour-%d", i)
		h, hk := hash([]byte(n)), hash([]byte(k))
		if (h>>32)&shardMask == (hk>>32)&shardMask && h&stripeMask != hk&stripeMask {
			return n
		}
	}
}

// TestFence: from Fence to the op's own Update a key is a miss and refuses
// every fill, whenever its ticket was taken; an Update of the key by another
// writer does not lift the fence, and the key's shard neighbours are served
// throughout. The op's Update — rewriting or dropping — lifts it.
func TestFence(t *testing.T) {
	for _, drop := range []bool{false, true} {
		t.Run(fmt.Sprintf("drop=%v", drop), func(t *testing.T) {
			c := New(1 << 20)
			n := sameShard("k")
			fill(c, "k", "old")
			fill(c, n, "neighbour")
			before := c.Snapshot([]byte("k"))
			op := put("k", "new")
			c.Fence([]kv.BatchOp{op})
			if _, _, ok := c.Get([]byte("k")); ok {
				t.Fatal("a fenced resident key was served")
			}
			get(t, c, n, "neighbour")
			for when, ticket := range map[string]uint64{"before": before, "during": c.Snapshot([]byte("k"))} {
				c.Fill([]byte("k"), []byte("filled"), false, ticket)
				if _, _, ok := c.Get([]byte("k")); ok {
					t.Fatalf("a fill under a ticket taken %s the fence was served", when)
				}
			}
			c.Update(put("k", "other"), false) // the same key, another writer's slice
			if _, _, ok := c.Get([]byte("k")); ok {
				t.Fatal("another writer's Update lifted the fence")
			}
			c.Update(op, drop)
			if drop {
				if _, _, ok := c.Get([]byte("k")); ok {
					t.Fatal("a dropping Update left the key resident")
				}
				fill(c, "k", "new")
			}
			get(t, c, "k", "new")
			get(t, c, n, "neighbour")
			want := int64(2) // k and n
			if drop {
				want++ // k again
			}
			if st := c.Stats(); st.CacheFills != want {
				t.Fatalf("fills = %d, want %d: a fenced fill went in", st.CacheFills, want)
			}
		})
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
	// A dropping update marks the entry dead without running the clock (the
	// shard stays under budget); the ring must not grow unboundedly.
	for i := 0; i < 10000; i++ {
		fill(c, "churn-key", "v")
		c.Update(del("churn-key"), true)
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
	c.Update(put("k", "v"), false)
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

// TestConcurrentCoherence hammers one key with racing fills, updates and
// gets. The updater is the key's one writer (as a worker is): it applies a
// version to the "engine" and then writes it through; fillers read the engine
// under a ticket, as a missing reader does. No Get may see a version older
// than the newest written through before it, and the run ends on the last
// value. Run with -race.
func TestConcurrentCoherence(t *testing.T) {
	c := New(1 << 20)
	k := []byte("contended")
	var engine, through atomic.Int64 // newest version applied / written through
	ver := func(v int64) []byte { return []byte(fmt.Sprintf("%d", v)) }
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5000; i++ {
				ticket := c.Snapshot(k)
				c.Fill(k, ver(engine.Load()), false, ticket)
			}
		}()
	}
	const last = 5000
	wg.Add(1)
	go func() {
		defer wg.Done()
		for v := int64(1); v <= last; v++ {
			engine.Store(v)
			if v%7 == 0 {
				c.Update(del(string(k)), true) // a drop: the next fill brings v back
			} else {
				c.Update(put(string(k), string(ver(v))), false)
			}
			through.Store(v)
		}
	}()
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20000; i++ {
				lo := through.Load()
				v, _, ok := c.Get(k)
				if !ok {
					continue
				}
				if seen, err := strconv.ParseInt(string(v), 10, 64); err != nil || seen < lo {
					t.Errorf("Get = %q after version %d was written through", v, lo)
					return
				}
			}
		}()
	}
	wg.Wait()
	fill(c, string(k), string(ver(engine.Load()))) // resident whatever the last racing fill did
	get(t, c, string(k), fmt.Sprint(last))
}

// TestUpdateAllocs pins the write path's share of the cache: rewriting a
// resident entry with a value that fits its buffer, and passing a
// non-resident key by, allocate nothing.
func TestUpdateAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation pins are not meaningful under the race detector")
	}
	c := New(1 << 20)
	fill(c, "resident", "value-1")
	ops := []kv.BatchOp{put("resident", "value-2"), del("resident"), put("resident", "value-3"), put("cold", "v")}
	if n := testing.AllocsPerRun(200, func() {
		for _, op := range ops {
			c.Update(op, false)
		}
	}); n != 0 {
		t.Errorf("Update: %.0f allocs per %d ops, pinned at 0", n, len(ops))
	}
	if st := c.Stats(); st.CacheUpdates == 0 || st.CacheEntries != 1 {
		t.Fatalf("the pinned loop rewrote nothing: %+v", st)
	}
}
