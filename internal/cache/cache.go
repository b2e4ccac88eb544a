// Package cache implements the sharded LRU block cache the LSM engine
// puts in front of SSTable data blocks — the "8 MB block cache of each
// RocksDB instance" the paper's KVell comparison calls out (§5.5). Keys
// are (cacheID, offset) pairs; cacheIDs are per-file and never reused
// within a DB, so stale entries cannot alias.
package cache

import "sync"

const numShards = 16

// entryOverhead is what an entry is charged on top of its block bytes.
const entryOverhead = 48

// Cache is a byte-budgeted sharded LRU. Safe for concurrent use.
type Cache struct {
	shards [numShards]shard
}

type key struct {
	id  uint64
	off uint64
}

// entry is one cached block and its own LRU links: inserting a block costs
// this one allocation, and a hit moves pointers without allocating.
type entry struct {
	k          key
	val        []byte
	prev, next *entry
}

type shard struct {
	mu     sync.Mutex
	budget int64
	used   int64
	lru    entry // list sentinel: lru.next is the most recent entry, lru.prev the least
	m      map[key]*entry
	hits   int64
	misses int64
}

// New creates a cache with the given total byte budget. A nil *Cache is
// valid and caches nothing, so callers need no nil checks.
func New(budget int64) *Cache {
	c := &Cache{}
	per := budget / numShards
	for i := range c.shards {
		s := &c.shards[i]
		s.budget, s.m = per, make(map[key]*entry)
		s.lru.prev, s.lru.next = &s.lru, &s.lru
	}
	return c
}

func (s *shard) unlink(e *entry) {
	e.prev.next, e.next.prev = e.next, e.prev
}

func (s *shard) pushFront(e *entry) {
	e.prev, e.next = &s.lru, s.lru.next
	e.prev.next, e.next.prev = e, e
}

// remove drops e from the shard entirely.
func (s *shard) remove(e *entry) {
	s.unlink(e)
	delete(s.m, e.k)
	s.used -= int64(len(e.val)) + entryOverhead
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

// Get returns the cached block and whether it was present.
func (c *Cache) Get(id, off uint64) ([]byte, bool) {
	if c == nil {
		return nil, false
	}
	k := key{id, off}
	s := c.shard(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.m[k]; ok {
		s.unlink(e)
		s.pushFront(e)
		s.hits++
		return e.val, true
	}
	s.misses++
	return nil, false
}

// Put inserts a block. The cache takes ownership of val (callers must not
// mutate it afterwards — SSTable blocks are immutable, so this is free).
func (c *Cache) Put(id, off uint64, val []byte) {
	if c == nil {
		return
	}
	k := key{id, off}
	s := c.shard(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.budget <= 0 {
		return
	}
	e, cached := s.m[k]
	if int64(len(val))+entryOverhead > s.budget {
		// The entry could never fit: inserting it would evict the whole
		// shard and then be trimmed away itself. Drop it up front — and
		// drop any smaller cached version, which the write supersedes.
		if cached {
			s.remove(e)
		}
		return
	}
	if cached {
		s.used += int64(len(val) - len(e.val))
		e.val = val
		s.unlink(e)
	} else {
		e = &entry{k: k, val: val}
		s.m[k] = e
		s.used += int64(len(val)) + entryOverhead
	}
	s.pushFront(e)
	for s.used > s.budget && s.lru.prev != &s.lru {
		s.remove(s.lru.prev)
	}
}

// Stats reports aggregate hit/miss counts and resident bytes.
func (c *Cache) Stats() (hits, misses, bytes int64) {
	if c == nil {
		return 0, 0, 0
	}
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		hits += s.hits
		misses += s.misses
		bytes += s.used
		s.mu.Unlock()
	}
	return hits, misses, bytes
}
