// Package cache implements the sharded LRU block cache the LSM engine
// puts in front of SSTable data blocks — the "8 MB block cache of each
// RocksDB instance" the paper's KVell comparison calls out (§5.5). Keys
// are (cacheID, offset) pairs; cacheIDs are per-file, and EvictFile drops
// a file's blocks the moment its reader is closed, so a re-installed image
// under the same number starts with none of the old one's blocks.
//
// The cache owns its memory. A block has one owner at a time — the reader
// filling it, then the cache — plus counted pins, and whoever drops the last
// reference hands the Block and its buffer to the shard's free list: in
// steady state the block one miss evicts is the buffer of the next, and
// nothing reaches the collector. A forgotten Release leaks to the GC (the
// buffer never re-enters the list); it cannot corrupt.
package cache

import (
	"sync"
	"sync/atomic"

	"p2kvs/internal/raceflag"
)

const numShards = 16

// entryOverhead is what an entry is charged on top of its block bytes.
const entryOverhead = 48

const (
	// maxFree bounds each shard's free list. Misses and evictions alternate
	// in a full shard, so one slot is the steady state; the rest absorb a
	// large block evicting several small ones.
	maxFree = 4
	// sizeClass is the granularity of buffer capacities, so the buffer of one
	// evicted block fits the next (blocks cluster within a few hundred bytes
	// of the writer's target size).
	sizeClass = 512
	// poison fills recycled buffers under the race detector: a read through
	// a released pin decodes as garbage in CI instead of passing on whatever
	// block lands there next.
	poison = 0xDB
)

// Cache is a byte-budgeted sharded LRU. Safe for concurrent use.
type Cache struct {
	shards [numShards]shard
}

type key struct {
	id  uint64
	off uint64
}

// Block is one reference-counted data block and its own LRU links: a hit
// moves pointers and bumps a counter without allocating. The holder of a pin
// may read Data until it calls Release, and not after.
type Block struct {
	k          key
	val        []byte // the content; the buffer is val[:cap(val)]
	refs       atomic.Int32
	s          *shard
	prev, next *Block
}

type shard struct {
	mu       sync.Mutex
	budget   int64
	used     int64
	lru      Block // list sentinel: lru.next is the most recent entry, lru.prev the least
	m        map[key]*Block
	hits     int64
	misses   int64
	detached int      // Blocks out of the map that still hold references
	free     []*Block // unreferenced Blocks keeping their buffers, at most maxFree
	oldest   int      // the free slot to overwrite when all are taken
}

// New creates a cache with the given total byte budget.
func New(budget int64) *Cache {
	c := &Cache{}
	per := budget / numShards
	for i := range c.shards {
		s := &c.shards[i]
		s.budget, s.m = per, make(map[key]*Block)
		s.lru.prev, s.lru.next = &s.lru, &s.lru
	}
	return c
}

func (s *shard) unlink(e *Block) {
	e.prev.next, e.next.prev = e.next, e.prev
}

func (s *shard) pushFront(e *Block) {
	e.prev, e.next = &s.lru, s.lru.next
	e.prev.next, e.next.prev = e, e
}

// remove drops e from the shard's index and the cache's reference with it;
// the memory is recycled here or by the last pin's Release.
func (s *shard) remove(e *Block) {
	s.unlink(e)
	delete(s.m, e.k)
	s.used -= int64(len(e.val)) + entryOverhead
	s.detached++
	if e.unref() {
		s.recycle(e)
	}
}

// unref drops one reference and reports whether it was the last, in which
// case the caller recycles e.
func (e *Block) unref() bool {
	n := e.refs.Add(-1)
	if n < 0 {
		panic("cache: Block released more often than pinned")
	}
	return n == 0
}

// recycle puts an unreferenced, detached Block, buffer and all, on the free
// list. Caller holds s.mu.
func (s *shard) recycle(e *Block) {
	s.detached--
	if raceflag.Enabled {
		buf := e.val[:cap(e.val)]
		for i := range buf {
			buf[i] = poison
		}
	}
	e.prev, e.next = nil, nil // a parked Block must not keep its old neighbours reachable
	if len(s.free) < maxFree {
		s.free = append(s.free, e)
	} else { // first in, first out: a size nobody asks for cannot clog the list
		s.free[s.oldest] = e
		s.oldest = (s.oldest + 1) % maxFree
	}
}

// alloc returns a detached Block holding one reference and an n-byte buffer,
// off the free list when one there fits. Caller holds s.mu.
func (s *shard) alloc(k key, n int) *Block {
	var e *Block
	for i, f := range s.free {
		// A much larger buffer stays for a block that needs it.
		if c, last := cap(f.val), len(s.free)-1; c >= n && c <= 2*n+sizeClass {
			e, s.free[i], s.free = f, s.free[last], s.free[:last]
			break
		}
	}
	if e == nil {
		e = &Block{s: s, val: make([]byte, 0, (n+sizeClass-1)/sizeClass*sizeClass)}
	}
	e.k, e.val = k, e.val[:n]
	e.refs.Store(1)
	s.detached++
	return e
}

// pin counts a use of a resident block and returns it with one more reference.
func (s *shard) pin(e *Block) *Block {
	s.unlink(e)
	s.pushFront(e)
	e.refs.Add(1)
	return e
}

func (c *Cache) shard(k key) *shard {
	h := k.id*0x9E3779B97F4A7C15 ^ k.off*0xC2B2AE3D27D4EB4F
	// Fold the full hash width before masking: the low bits of the
	// multiplicative mix are weak on structured inputs (small file ids,
	// page-aligned offsets), and any fixed 5-bit window skews — xor-fold
	// so every input bit reaches the shard index.
	h ^= h >> 32
	h ^= h >> 16
	return &c.shards[h&(numShards-1)]
}

// Get returns the block at (id, off) pinned, and whether it was cached. On a
// miss the Block is new and private to the caller: it reads the n stored
// bytes into Data and hands the block to Insert, or gives it up with Release.
func (c *Cache) Get(id, off uint64, n int) (*Block, bool) {
	k := key{id, off}
	s := c.shard(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.m[k]; ok {
		s.hits++
		return s.pin(e), true
	}
	s.misses++
	return s.alloc(k, n), false
}

// Lookup is Get for a reader that will not read the block itself: the
// resident block pinned, or nil. A miss is not counted; the Get that reads
// the block counts it.
func (c *Cache) Lookup(id, off uint64) *Block {
	k := key{id, off}
	s := c.shard(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.m[k]; ok {
		s.hits++
		return s.pin(e)
	}
	return nil
}

// Insert caches a block Get handed out on a miss, with the first n bytes of
// its Data as what the block holds from now on, and returns the pinned block
// to read it through. That is b, unless another reader filled the same block
// first: then b is given up and the resident one returned, so the cache never
// swaps the bytes under a reader. A block that could never fit the shard
// stays private to the caller.
func (c *Cache) Insert(b *Block, n int) *Block {
	s := b.s
	s.mu.Lock()
	defer s.mu.Unlock()
	b.val = b.val[:n]
	if e, ok := s.m[b.k]; ok {
		if b.unref() {
			s.recycle(b)
		}
		return s.pin(e)
	}
	if int64(n)+entryOverhead > s.budget {
		// Inserting it would evict the whole shard and then be trimmed away
		// itself.
		return b
	}
	s.m[b.k] = b
	s.used += int64(n) + entryOverhead
	s.detached--
	b.refs.Add(1) // the cache's own reference
	s.pushFront(b)
	for s.used > s.budget && s.lru.prev != &s.lru {
		s.remove(s.lru.prev)
	}
	return b
}

// Data returns the block's bytes: the read buffer after a missed Get, the
// content after Insert.
func (b *Block) Data() []byte { return b.val }

// Release drops the caller's pin. A hit's pin is rarely the last reference,
// so the common case takes no lock.
func (b *Block) Release() {
	if b.unref() {
		b.s.mu.Lock()
		b.s.recycle(b)
		b.s.mu.Unlock()
	}
}

// each runs f on every shard under its lock. A nil cache has none, so an
// engine running without one needs no check.
func (c *Cache) each(f func(s *shard)) {
	if c == nil {
		return
	}
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		f(s)
		s.mu.Unlock()
	}
}

// EvictFile drops every cached block of file id. Pinned blocks leave the
// index now and are recycled by their last Release.
func (c *Cache) EvictFile(id uint64) {
	c.each(func(s *shard) {
		for e := s.lru.next; e != &s.lru; {
			next := e.next
			if e.k.id == id {
				s.remove(e)
			}
			e = next
		}
	})
}

// Stats reports aggregate hit/miss counts and resident bytes.
func (c *Cache) Stats() (hits, misses, bytes int64) {
	c.each(func(s *shard) {
		hits += s.hits
		misses += s.misses
		bytes += s.used
	})
	return hits, misses, bytes
}

// Pinned reports how many pins are outstanding: references readers hold on
// cached blocks, plus blocks that are out of the index (being filled, or
// evicted while pinned) and not yet recycled. Zero once every Iter is closed.
func (c *Cache) Pinned() (n int) {
	c.each(func(s *shard) {
		n += s.detached
		for e := s.lru.next; e != &s.lru; e = e.next {
			n += int(e.refs.Load()) - 1
		}
	})
	return n
}
