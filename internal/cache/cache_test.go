package cache

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"sync"
	"testing"

	"p2kvs/internal/block"
	"p2kvs/internal/raceflag"
)

// fill does what a reader does with the block at (id, off): pin it, and on a
// miss read val into the buffer and insert it. The caller releases the pin.
func fill(c *Cache, id, off uint64, val []byte) *Block {
	b, hit := c.Get(id, off, len(val))
	if !hit {
		copy(b.Data(), val)
		b = c.Insert(b, len(val))
	}
	return b
}

func put(c *Cache, id, off uint64, val []byte) { fill(c, id, off, val).Release() }

// resident reports whether (id, off) is cached, without counting as a use.
func resident(c *Cache, id, off uint64) bool {
	k := key{id, off}
	s := c.shard(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.m[k] != nil
}

// sameShard returns n offsets of file id that land in the shard of (id, 0).
func sameShard(c *Cache, id uint64, n int) []uint64 {
	home := c.shard(key{id, 0})
	var offs []uint64
	for off := uint64(0); len(offs) < n; off += 4096 {
		if c.shard(key{id, off}) == home {
			offs = append(offs, off)
		}
	}
	return offs
}

func TestGetInsert(t *testing.T) {
	c := New(1 << 20)
	b, hit := c.Get(1, 0, 7)
	if hit || len(b.Data()) != 7 {
		t.Fatalf("empty cache: hit %v, %d-byte buffer", hit, len(b.Data()))
	}
	b.Release() // a failed read gives the buffer back
	put(c, 1, 0, []byte("block-a"))
	put(c, 2, 0, []byte("other-file"))
	put(c, 1, 4096, []byte("other-off"))
	b, hit = c.Get(1, 0, 7)
	if !hit || string(b.Data()) != "block-a" {
		t.Fatalf("Get = %q %v", b.Data(), hit)
	}
	b.Release()
	if n := c.Pinned(); n != 0 {
		t.Fatalf("%d pins outstanding", n)
	}
}

func TestBudgetEviction(t *testing.T) {
	c := New(16 * 1024) // 1 KiB per shard
	for i := 0; i < 200; i++ {
		put(c, 1, uint64(i*4096), make([]byte, 512))
	}
	if _, _, bytes := c.Stats(); bytes > 16*1024 {
		t.Fatalf("cache over budget: %d", bytes)
	}
	found := false
	for i := 195; i < 200; i++ {
		found = found || resident(c, 1, uint64(i*4096))
	}
	if !found {
		t.Fatal("LRU evicted even the most recent entries")
	}
}

func TestNilCacheSafe(t *testing.T) {
	var c *Cache
	c.EvictFile(1)
	if h, m, b := c.Stats(); h != 0 || m != 0 || b != 0 {
		t.Fatal("nil cache stats nonzero")
	}
}

func TestStatsCount(t *testing.T) {
	c := New(1 << 20)
	put(c, 1, 0, []byte("v")) // one miss
	put(c, 1, 0, []byte("v")) // one hit
	b, _ := c.Get(1, 1, 1)    // one miss
	b.Release()
	if hits, misses, _ := c.Stats(); hits != 1 || misses != 2 {
		t.Fatalf("hits=%d misses=%d", hits, misses)
	}
}

// TestLookupCountsHitsOnly: a Lookup that misses is followed by the Get that
// reads the block, so only that Get counts the miss.
func TestLookupCountsHitsOnly(t *testing.T) {
	c := New(1 << 20)
	if b := c.Lookup(1, 0); b != nil {
		t.Fatal("Lookup on an empty cache returned a block")
	}
	put(c, 1, 0, []byte("block")) // one miss
	b := c.Lookup(1, 0)           // one hit
	if b == nil || string(b.Data()) != "block" {
		t.Fatalf("Lookup of a resident block = %v", b)
	}
	b.Release()
	if hits, misses, _ := c.Stats(); hits != 1 || misses != 1 {
		t.Fatalf("hits=%d misses=%d, want 1 and 1", hits, misses)
	}
	if n := c.Pinned(); n != 0 {
		t.Fatalf("%d pins outstanding", n)
	}
}

func TestShardDistribution(t *testing.T) {
	// Regression: shard selection used only the top 5 bits of the mixed
	// hash ((h>>59)%16), so structured (id, offset) populations — small
	// file ids, page-aligned offsets — piled into a few shards. With the
	// full-width fold every shard must take a fair share.
	c := New(64 << 20)
	const n = 1 << 14
	counts := make(map[*shard]int, numShards)
	for id := uint64(1); id <= 16; id++ {
		for i := 0; i < n/16; i++ {
			counts[c.shard(key{id: id, off: uint64(i) * 4096})]++
		}
	}
	if len(counts) != numShards {
		t.Fatalf("only %d of %d shards used", len(counts), numShards)
	}
	avg := n / numShards
	for i := range c.shards {
		got := counts[&c.shards[i]]
		if got < avg/2 || got > avg*2 {
			t.Errorf("shard %d got %d keys, want within [%d,%d]", i, got, avg/2, avg*2)
		}
	}
}

// TestOversizedInsertStaysPrivate: a block larger than the shard budget
// would evict every resident entry and then be trimmed away itself. It is
// served to the reader that loaded it and never enters the index.
func TestOversizedInsertStaysPrivate(t *testing.T) {
	c := New(numShards * 1024) // 1 KiB per shard
	for i := 0; i < 64; i++ {
		put(c, 1, uint64(i)*4096, make([]byte, 64))
	}
	_, _, before := c.Stats()
	if before == 0 {
		t.Fatal("setup: nothing cached")
	}
	for i := 0; i < 16; i++ {
		b := fill(c, 2, uint64(i)*4096, bytes.Repeat([]byte{7}, 4096))
		if len(b.Data()) != 4096 || b.Data()[4095] != 7 {
			t.Fatal("oversized block not readable through its pin")
		}
		b.Release()
		if resident(c, 2, uint64(i)*4096) {
			t.Fatal("oversized block resident")
		}
	}
	if _, _, after := c.Stats(); after != before {
		t.Fatalf("oversized inserts churned the cache: %d -> %d bytes", before, after)
	}
	if n := c.Pinned(); n != 0 {
		t.Fatalf("%d pins outstanding", n)
	}
}

// TestLRUExactOrder pins the eviction order of the intrusive list in one
// shard: least recently used goes first, a hit and a second insert of a
// resident block both count as use, and the charged bytes follow the
// resident entries.
func TestLRUExactOrder(t *testing.T) {
	c := New(numShards * 4 * (100 + entryOverhead)) // 4 entries of 100 B per shard
	home := c.shard(key{1, 0})
	offs := sameShard(c, 1, 6)
	dup, _ := c.Get(1, offs[1], 100) // a second reader's miss, in flight
	for _, off := range offs[:4] {
		put(c, 1, off, make([]byte, 100))
	}
	put(c, 1, offs[0], nil)               // a hit; order, oldest first: 1 2 3 0
	c.Insert(dup, 100).Release()          // 2 3 0 1
	put(c, 1, offs[4], make([]byte, 100)) // evicts 2
	put(c, 1, offs[5], make([]byte, 100)) // evicts 3
	for i, want := range []bool{true, true, false, false, true, true} {
		if got := resident(c, 1, offs[i]); got != want {
			t.Errorf("entry %d resident = %v, want %v", i, got, want)
		}
	}
	if want := int64(4 * (100 + entryOverhead)); home.used != want || len(home.m) != 4 {
		t.Fatalf("shard holds %d bytes in %d entries, want %d in 4", home.used, len(home.m), want)
	}
}

// TestPinnedBlockSurvivesEviction: a block evicted while a reader holds it
// keeps its bytes — the buffer is not handed to any later miss — until the
// last pin is released, and is the next miss's buffer after that.
func TestPinnedBlockSurvivesEviction(t *testing.T) {
	c := New(numShards * 2 * (100 + entryOverhead)) // 2 entries per shard
	offs := sameShard(c, 1, 12)
	want := bytes.Repeat([]byte("p"), 100)
	pinned := fill(c, 1, offs[0], want)
	held := &pinned.Data()[0]
	for _, off := range offs[1:11] {
		b := fill(c, 1, off, bytes.Repeat([]byte("x"), 100))
		if &b.Data()[0] == held {
			t.Fatal("a pinned block's buffer was handed to another miss")
		}
		b.Release()
	}
	if resident(c, 1, offs[0]) {
		t.Fatal("setup: the pinned block was never evicted")
	}
	if !bytes.Equal(pinned.Data(), want) {
		t.Fatalf("pinned block changed under its reader: %q", pinned.Data())
	}
	if n := c.Pinned(); n != 1 {
		t.Fatalf("Pinned = %d, want 1", n)
	}
	// Empty the shard's free list, so the released buffer is the only one.
	s := c.shard(key{1, 0})
	s.free = nil
	pinned.Release()
	b, _ := c.Get(1, offs[11], 100)
	if &b.Data()[0] != held {
		t.Error("the released buffer was not recycled into the next miss")
	}
	b.Release()
	if n := c.Pinned(); n != 0 {
		t.Fatalf("Pinned = %d after the last release, want 0", n)
	}
}

// TestDoubleMissAdoptsResident: two readers miss the same block and both
// insert it. The second adopts the first's entry — the bytes under the first
// reader are not swapped — and its own buffer goes back to the free list.
func TestDoubleMissAdoptsResident(t *testing.T) {
	c := New(1 << 20)
	first, hit1 := c.Get(1, 0, 5)
	second, hit2 := c.Get(1, 0, 5)
	if hit1 || hit2 || first == second {
		t.Fatalf("hits %v %v, same block %v", hit1, hit2, first == second)
	}
	copy(first.Data(), "first")
	copy(second.Data(), "loser")
	a := c.Insert(first, 5)
	b := c.Insert(second, 5)
	if a != first || b != first || string(b.Data()) != "first" {
		t.Fatalf("second insert returned %q, want the resident entry", b.Data())
	}
	if n := c.Pinned(); n != 2 {
		t.Fatalf("Pinned = %d, want 2", n)
	}
	a.Release()
	b.Release()
	s := c.shard(key{1, 0})
	if len(s.m) != 1 || len(s.free) != 1 || c.Pinned() != 0 {
		t.Fatalf("%d entries, %d free blocks, %d pinned; want 1, 1, 0", len(s.m), len(s.free), c.Pinned())
	}
}

func TestEvictFile(t *testing.T) {
	c := New(1 << 20)
	for i := uint64(0); i < 100; i++ {
		put(c, 1, i*4096, make([]byte, 100))
		put(c, 2, i*4096, make([]byte, 100))
	}
	held := fill(c, 1, 0, nil)
	c.EvictFile(1)
	for i := uint64(0); i < 100; i++ {
		if resident(c, 1, i*4096) {
			t.Fatalf("block %d of the evicted file still resident", i)
		}
		if !resident(c, 2, i*4096) {
			t.Fatalf("block %d of another file evicted", i)
		}
	}
	if _, _, bytes := c.Stats(); bytes != 100*(100+entryOverhead) {
		t.Fatalf("%d bytes charged after EvictFile, want one file's worth", bytes)
	}
	if len(held.Data()) != 100 || c.Pinned() != 1 {
		t.Fatalf("pinned block: %d bytes, Pinned = %d", len(held.Data()), c.Pinned())
	}
	held.Release()
	if n := c.Pinned(); n != 0 {
		t.Fatalf("Pinned = %d, want 0", n)
	}
}

func TestReleaseTwicePanics(t *testing.T) {
	c := New(1 << 20)
	b := fill(c, 1, 0, []byte("v"))
	c.EvictFile(1)
	b.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("second Release of one pin did not panic")
		}
	}()
	b.Release()
}

// TestRecycledBuffersArePoisoned: under the race detector a buffer is
// overwritten the moment its last reference goes, so a reader that kept a
// slice past its Release decodes garbage in CI's -race run.
func TestRecycledBuffersArePoisoned(t *testing.T) {
	if !raceflag.Enabled {
		t.Skip("buffers are poisoned only under the race detector")
	}
	c := New(1 << 20)
	b := fill(c, 1, 0, []byte("live block"))
	stale := b.Data()
	c.EvictFile(1)
	b.Release()
	if want := bytes.Repeat([]byte{poison}, len(stale)); !bytes.Equal(stale, want) {
		t.Fatalf("released buffer reads %q", stale)
	}
}

// TestConcurrentPinsKeepBlocksIntact is the ownership property under
// contention: 8 goroutines get, insert, walk runs of blocks and evict files
// in a cache small enough that every insert evicts, and every block read
// through a pin passes its own CRC and names the key it was asked for.
func TestConcurrentPinsKeepBlocksIntact(t *testing.T) {
	const files, blocksPerFile = 4, 64
	c := New(64 << 10)
	sealed := func(id, off uint64, n int) []byte {
		blk := make([]byte, 16, n+block.TrailerLen)
		binary.LittleEndian.PutUint64(blk, id)
		binary.LittleEndian.PutUint64(blk[8:], off)
		return block.Seal(blk[:n])
	}
	read := func(id, off uint64) *Block {
		n := 600 + int(off%7)*300 // several size classes
		b, hit := c.Get(id, off, n+block.TrailerLen)
		if !hit {
			copy(b.Data(), sealed(id, off, n))
			b = c.Insert(b, n+block.TrailerLen)
		}
		content, err := block.Unseal(b.Data())
		if err != nil || binary.LittleEndian.Uint64(content) != id || binary.LittleEndian.Uint64(content[8:]) != off {
			t.Errorf("block (%d, %d) read through its pin is not that block (err %v)", id, off, err)
		}
		return b
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 3000 && !t.Failed(); i++ {
				id, off := uint64(rng.Intn(files)), uint64(rng.Intn(blocksPerFile))
				switch op := rng.Intn(100); {
				case op < 70:
					read(id, off).Release()
				case op < 95: // an iterator: one pin at a time, re-checked before it moves on
					for ; off < blocksPerFile && rng.Intn(8) != 0; off++ {
						b := read(id, off)
						if _, err := block.Unseal(b.Data()); err != nil {
							t.Errorf("block (%d, %d) changed under its pin", id, off)
						}
						b.Release()
					}
				default:
					c.EvictFile(id)
				}
			}
		}(g)
	}
	wg.Wait()
	if n := c.Pinned(); n != 0 {
		t.Fatalf("%d pins outstanding after every reader released", n)
	}
	if _, _, bytes := c.Stats(); bytes > 64<<10 {
		t.Fatalf("cache over budget: %d", bytes)
	}
}

// TestAllocs pins the cache owning its memory: a hit allocates nothing, and
// in a cache at its budget neither does a miss — the block it evicts is the
// buffer, and the Block, of the next one.
func TestAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation pins are not meaningful under the race detector")
	}
	const blockLen = 1156 // a block of 128-byte records cut at 1 KiB
	c := New(numShards * 64 * (blockLen + entryOverhead))
	blk := make([]byte, 5*sizeClass) // room for the largest block of the class
	// Well past the budget: every shard is evicting.
	for i := 0; i < 4096; i++ {
		put(c, 1, uint64(i)*4096, blk[:blockLen])
	}
	put(c, 9, 0, blk[:blockLen])
	if n := testing.AllocsPerRun(200, func() {
		b, hit := c.Get(9, 0, blockLen)
		if !hit {
			t.Fatal("miss on a resident block")
		}
		b.Release()
	}); n != 0 {
		t.Errorf("Get: %.0f allocs, want 0", n)
	}
	next := uint64(4096)
	const perRun = 1000
	if n := testing.AllocsPerRun(5, func() {
		for i := 0; i < perRun; i++ {
			put(c, 1, next*4096, blk[:1056+next%200]) // miss, insert, evict; sizes vary within a class
			next++
		}
	}); n > perRun/100 {
		t.Errorf("steady-state miss, insert, evict: %.3f allocs per op, want 0 (<= 0.01)", n/perRun)
	}
}
