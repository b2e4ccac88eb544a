// Package hotcache implements the accessing layer's hot-key read cache:
// a sharded, byte-budgeted map of recently read values that sits ABOVE
// the worker queues, so a hit never pays queue admission or a worker
// round-trip. Coherence rides on the same apply-order the store's GSN
// machinery already enforces, via striped invalidation watermarks:
//
//   - Every key hashes to one of a fixed number of stripes, each an
//     atomic counter ("watermark").
//   - A reader that misses snapshots its key's stripe BEFORE submitting
//     the engine read (a "ticket"), and may Fill the cache afterwards
//     only while the stripe still equals the ticket.
//   - A writer bumps the stripe of every written key after the engine
//     applied the batch and before the write is acknowledged.
//   - A cached entry is served only while the stripe still equals the
//     entry's ticket (every Get revalidates).
//
// The protocol is conservative: any write racing a read-and-fill either
// bumps the stripe before the Fill (the fill is rejected) or after it
// (the entry's ticket is stale, so it is invisible to every later Get).
// A value can be served concurrently with an in-flight write to the same
// key only while that write is unacknowledged — which is exactly the
// window where serving the pre-write value is linearizable. Because the
// bump happens before the writer's acknowledgement, read-your-writes
// holds. Stripe collisions only ever invalidate more than necessary,
// never less.
//
// Misses are cached too (negative entries), under the same stripe rules:
// a later write to the key bumps the stripe and the "not found" stops
// being served.
package hotcache

import (
	"sync"
	"sync/atomic"

	"p2kvs/internal/kv"
)

const (
	// stripes is the invalidation watermark count (power of two). More
	// stripes mean fewer false invalidations from colliding keys; 4096
	// costs 32 KiB per cache.
	stripes     = 4096
	stripeMask  = stripes - 1
	numShards   = 16
	shardMask   = numShards - 1
	// entryOverhead approximates per-entry bookkeeping (map slot, ring
	// slot, header) charged against the byte budget.
	entryOverhead = 64
)

// Stats is a point-in-time counter snapshot. The store embeds it in its
// stats document, so the tags are its schema (internal/stats) and the
// field names carry the Cache prefix they have there.
type Stats struct {
	CacheEnabled       bool  `json:"cache_enabled" info:"Cache"`       // false only from a nil *Cache
	CacheHits          int64 `json:"cache_hits" info:"Cache"`          // positive hits served from the cache
	CacheNegHits       int64 `json:"cache_neg_hits" info:"Cache"`      // negative ("not found") hits served
	CacheMisses        int64 `json:"cache_misses" info:"Cache"`        // lookups that fell through to the store
	CacheFills         int64 `json:"cache_fills" info:"Cache"`         // entries inserted (ticket still valid)
	CacheEvictions     int64 `json:"cache_evictions" info:"Cache"`     // entries evicted by the clock for space
	CacheInvalidations int64 `json:"cache_invalidations" info:"Cache"` // stripe bumps performed by writers
	CacheBytes         int64 `json:"cache_bytes" info:"Cache"`         // resident bytes (values + overhead)
	CacheEntries       int64 `json:"cache_entries" info:"Cache"`       // resident entries (including negative)
}

// Cache is the hot-key read cache. Safe for concurrent use; a nil
// *Cache is valid and caches nothing, so callers need no nil checks.
type Cache struct {
	marks         [stripes]atomic.Uint64
	invalidations atomic.Int64
	shards        [numShards]shard
}

type entry struct {
	key    string
	val    []byte
	neg    bool   // negative entry: the key was absent
	ticket uint64 // stripe value the fill was snapshotted under
	ref    bool   // clock reference bit
	dead   bool   // removed from the map, awaiting ring cleanup
}

func (e *entry) cost() int64 {
	return int64(len(e.key)) + int64(len(e.val)) + entryOverhead
}

type shard struct {
	mu     sync.Mutex
	budget int64
	used   int64
	m      map[string]*entry
	ring   []*entry // clock ring; hand walks it looking for victims
	hand   int

	hits    int64
	negHits int64
	misses  int64
	fills   int64
	evicted int64
}

// New creates a cache with the given total byte budget (split evenly
// across shards). A non-positive budget yields a cache that never fills.
func New(budget int64) *Cache {
	c := &Cache{}
	per := budget / numShards
	for i := range c.shards {
		c.shards[i] = shard{budget: per, m: make(map[string]*entry)}
	}
	return c
}

// hash is FNV-1a 64 with an avalanche fold; stripe and shard indices are
// drawn from different halves so a stripe collision is not automatically
// a shard collision.
func hash(key []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, b := range key {
		h ^= uint64(b)
		h *= 1099511628211
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}

// Snapshot returns the key's current invalidation watermark — the ticket
// a reader must take BEFORE submitting the engine read it may later Fill
// the result of.
func (c *Cache) Snapshot(key []byte) uint64 {
	if c == nil {
		return 0
	}
	return c.marks[hash(key)&stripeMask].Load()
}

// Invalidate bumps the key's watermark. Writers call it for every
// written key after the engine applied the write and before the write is
// acknowledged; any cached entry for the key (and, collaterally, for
// stripe-colliding keys) stops being served. Lock-free.
func (c *Cache) Invalidate(key []byte) {
	if c == nil {
		return
	}
	c.marks[hash(key)&stripeMask].Add(1)
	c.invalidations.Add(1)
}

// Get returns the cached value for key. ok reports a usable hit;
// negative reports that the hit is a cached "not found". A stale entry
// (watermark moved past its ticket) is removed and reported as a miss.
// The returned slice is a private copy — callers own it — and non-nil on a
// positive hit: a cached empty value is a value (kv.Present).
func (c *Cache) Get(key []byte) (val []byte, negative, ok bool) {
	if c == nil {
		return nil, false, false
	}
	h := hash(key)
	cur := c.marks[h&stripeMask].Load()
	s := &c.shards[(h>>32)&shardMask]
	s.mu.Lock()
	defer s.mu.Unlock()
	e, present := s.m[string(key)]
	if !present {
		s.misses++
		return nil, false, false
	}
	if e.ticket != cur {
		// Invalidated since it was filled: drop it so the space frees
		// without waiting for the clock.
		delete(s.m, e.key)
		e.dead = true
		s.used -= e.cost()
		s.misses++
		return nil, false, false
	}
	e.ref = true
	if e.neg {
		s.negHits++
		return nil, true, true
	}
	s.hits++
	return kv.Present(append([]byte(nil), e.val...)), false, true
}

// Fill inserts the result of an engine read performed under ticket (from
// Snapshot). The insert is dropped if the key's watermark has moved —
// the value may predate a concurrent write — or if the entry could never
// fit the shard budget. negative records a "not found" result. The cache
// copies key and val; callers keep ownership of both.
func (c *Cache) Fill(key, val []byte, negative bool, ticket uint64) {
	if c == nil {
		return
	}
	h := hash(key)
	if c.marks[h&stripeMask].Load() != ticket {
		return
	}
	s := &c.shards[(h>>32)&shardMask]
	s.mu.Lock()
	defer s.mu.Unlock()
	// Revalidate under the shard lock: a bump between the check above and
	// the lock acquisition must not produce a servable entry. (Even if it
	// slipped through, the entry's stale ticket would keep it invisible —
	// this just avoids wasting budget on it.)
	if c.marks[h&stripeMask].Load() != ticket {
		return
	}
	cost := int64(len(key)) + int64(len(val)) + entryOverhead
	if cost > s.budget {
		return // could never fit; inserting would just churn the shard
	}
	if old, ok := s.m[string(key)]; ok {
		s.used -= old.cost()
		old.dead = true
		delete(s.m, old.key)
	}
	// New entries start with the reference bit clear: an entry that is
	// never touched again is the first victim (scan resistance), while
	// anything re-read before the hand arrives earns its second chance.
	e := &entry{
		key:    string(key),
		neg:    negative,
		ticket: ticket,
	}
	if !negative {
		e.val = append([]byte(nil), val...)
	}
	s.m[e.key] = e
	s.ring = append(s.ring, e)
	s.used += cost
	s.fills++
	s.evict()
	// Dead entries (invalidated by Get) are normally reclaimed by the
	// clock, but a shard living under budget never runs it — compact when
	// the ring is mostly corpses so it cannot grow without bound.
	if len(s.ring) > 2*len(s.m)+16 {
		s.compact()
	}
}

// compact rebuilds the ring without dead entries. Called with s.mu held.
func (s *shard) compact() {
	live := s.ring[:0]
	for _, e := range s.ring {
		if !e.dead {
			live = append(live, e)
		}
	}
	for i := len(live); i < len(s.ring); i++ {
		s.ring[i] = nil
	}
	s.ring = live
	s.hand = 0
}

// evict runs the clock until the shard fits its budget: dead entries are
// reclaimed, referenced entries get a second chance, everything else is
// a victim. Called with s.mu held.
func (s *shard) evict() {
	for s.used > s.budget && len(s.ring) > 0 {
		if s.hand >= len(s.ring) {
			s.hand = 0
		}
		e := s.ring[s.hand]
		if e.dead {
			s.removeAtHand()
			continue
		}
		if e.ref {
			e.ref = false
			s.hand++
			continue
		}
		delete(s.m, e.key)
		s.used -= e.cost()
		s.evicted++
		s.removeAtHand()
	}
}

// removeAtHand drops ring[hand] by swapping the tail in — the clock is
// approximate, so the reordering is harmless and keeps removal O(1).
func (s *shard) removeAtHand() {
	last := len(s.ring) - 1
	s.ring[s.hand] = s.ring[last]
	s.ring[last] = nil
	s.ring = s.ring[:last]
}

// Stats sums the per-shard counters.
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	st := Stats{CacheEnabled: true, CacheInvalidations: c.invalidations.Load()}
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		st.CacheHits += s.hits
		st.CacheNegHits += s.negHits
		st.CacheMisses += s.misses
		st.CacheFills += s.fills
		st.CacheEvictions += s.evicted
		st.CacheBytes += s.used
		st.CacheEntries += int64(len(s.m))
		s.mu.Unlock()
	}
	return st
}
