// Package hotcache implements the accessing layer's hot-key read cache:
// a sharded, byte-budgeted map of recently read values that sits ABOVE
// the worker queues, so a hit never pays queue admission or a worker
// round-trip. Coherence is write-through, ordered by the key's shard lock:
//
//   - A writer — the key's worker, after the engine applied the write and
//     before anyone is acknowledged — calls Update for every op in op
//     order. Under the shard lock it bumps the key's stripe (one of a fixed
//     number of atomic counters) and, if the key is resident, rewrites the
//     entry in place to what the op left in the engine: the new value, or a
//     negative entry for a delete. A key that is not resident stays out —
//     reads decide what is hot.
//   - A reader that misses snapshots its key's stripe BEFORE the engine read
//     (a "ticket") and may Fill the result only while, under the shard lock,
//     the stripe still equals the ticket.
//   - A direct writer, whose worker's reads do not queue behind it, first
//     calls Fence: until each op's own Update, its key misses and refuses
//     fills, so a reader that read the new value cannot hit an older one.
//   - Get serves whatever is resident and not fenced. Residency is validity.
//
// A write racing a read-and-fill of the same key either runs its Update
// first (the fill is rejected) or second (it overwrites what the fill
// inserted): the resident entry is always what the key's latest Update left,
// or an engine read no Update has followed. A value older than a write is
// therefore served only while that write is unacknowledged — the window in
// which the pre-write value is linearizable — and read-your-writes holds. A
// stripe collision costs a rejected fill, never a resident neighbour.
//
// A writer that cannot vouch for the engine's state of a key — the write
// failed and may have partially applied, or it did not come through the
// data plane's routing (a reshard copy, mirror or purge, which may delete a
// key this worker no longer owns) — calls Update with drop set: the stripe
// is bumped and a resident entry removed, and the next read refills it.
//
// Misses are cached too (negative entries); a put through Update turns one
// positive.
package hotcache

import (
	"bytes"
	"slices"
	"sync"
	"sync/atomic"

	"p2kvs/internal/kv"
)

const (
	// stripes is the fill-gate counter count (power of two). More stripes
	// mean fewer fills rejected over a colliding key's write; 4096 costs
	// 32 KiB per cache.
	stripes    = 4096
	stripeMask = stripes - 1
	numShards  = 16
	shardMask  = numShards - 1
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
	CacheInvalidations int64 `json:"cache_invalidations" info:"Cache"` // stripe bumps performed by writers, one per written key
	CacheUpdates       int64 `json:"cache_updates" info:"Cache"`       // resident entries a write rewrote in place
	CacheBytes         int64 `json:"cache_bytes" info:"Cache"`         // resident bytes (values + overhead)
	CacheEntries       int64 `json:"cache_entries" info:"Cache"`       // resident entries (including negative)
}

// Cache is the hot-key read cache. Safe for concurrent use; a nil
// *Cache is valid and caches nothing, so callers need no nil checks.
type Cache struct {
	marks  [stripes]atomic.Uint64
	shards [numShards]shard
}

type entry struct {
	key  string
	val  []byte // len 0 on a negative entry; the buffer is kept for the next put
	neg  bool   // negative entry: the key was absent
	ref  bool   // clock reference bit
	dead bool   // removed from the map, awaiting ring cleanup
}

func cost(keyLen, valLen int) int64 {
	return int64(keyLen) + int64(valLen) + entryOverhead
}

func (e *entry) cost() int64 { return cost(len(e.key), len(e.val)) }

type shard struct {
	mu     sync.Mutex
	budget int64
	used   int64
	m      map[string]*entry
	ring   []*entry // clock ring; hand walks it looking for victims
	hand   int
	fences [][]byte // the keys of fenced ops, their writers' slices

	hits    int64
	negHits int64
	misses  int64
	fills   int64
	evicted int64
	bumps   int64
	updates int64
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

// Snapshot returns the key's current stripe value — the ticket a reader
// must take BEFORE submitting the engine read it may later Fill the result
// of.
func (c *Cache) Snapshot(key []byte) uint64 {
	if c == nil {
		return 0
	}
	return c.marks[hash(key)&stripeMask].Load()
}

// Fence bumps each op's stripe and records its key, which the writer leaves
// unmodified until the op's own Update lifts the fence.
func (c *Cache) Fence(ops []kv.BatchOp) {
	if c == nil {
		return
	}
	for _, op := range ops {
		h := hash(op.Key)
		s := &c.shards[(h>>32)&shardMask]
		s.mu.Lock()
		c.marks[h&stripeMask].Add(1)
		s.fences = append(s.fences, op.Key)
		s.mu.Unlock()
	}
}

// fenced reports whether key is fenced. With lift it lifts the fence of the
// very slice key instead, if any. Called with s.mu held.
func (s *shard) fenced(key []byte, lift bool) bool {
	for i, k := range s.fences {
		if bytes.Equal(k, key) && (!lift || len(k) == 0 || &k[0] == &key[0]) {
			if lift {
				s.fences = slices.Delete(s.fences, i, i+1)
			}
			return true
		}
	}
	return false
}

// Update records that the key's worker applied op. Workers call it for
// every written key, in op order, after the engine call returned and before
// the write is acknowledged. It bumps the key's stripe — a fill whose engine
// read may predate op is rejected — and rewrites a resident entry in place:
// a put stores the new value (into the old buffer when it fits), a delete
// turns the entry negative. With drop set the resident entry is removed
// instead (see the package comment for who must). A key that is not
// resident is never inserted. It copies what it keeps of op, and lifts op's
// fence, not another writer's.
func (c *Cache) Update(op kv.BatchOp, drop bool) {
	if c == nil {
		return
	}
	h := hash(op.Key)
	s := &c.shards[(h>>32)&shardMask]
	s.mu.Lock()
	defer s.mu.Unlock()
	// Under the shard lock, as Fill's check is: a fill of this key ran
	// wholly before this Update (and is overwritten below) or sees the bump.
	c.marks[h&stripeMask].Add(1)
	s.bumps++
	s.fenced(op.Key, true)
	e, resident := s.m[string(op.Key)]
	if !resident {
		return
	}
	if drop || cost(len(op.Key), len(op.Value)) > s.budget {
		s.remove(e) // dropped, or a value that could never fit
		return
	}
	s.set(e, op.Value, op.Kind == kv.OpDelete)
	s.updates++
	s.evict()
}

// Get returns the cached value for key. ok reports a hit; negative reports
// that the hit is a cached "not found". The returned slice is a private
// copy — callers own it — and non-nil on a positive hit: a cached empty
// value is a value (kv.Present).
func (c *Cache) Get(key []byte) (val []byte, negative, ok bool) {
	if c == nil {
		return nil, false, false
	}
	s := &c.shards[(hash(key)>>32)&shardMask]
	s.mu.Lock()
	defer s.mu.Unlock()
	e, resident := s.m[string(key)]
	if !resident || s.fenced(key, false) {
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
// Snapshot). The insert is dropped if the key's stripe has moved — the value
// may predate a concurrent write — if the key is fenced, or if the entry could
// never fit the shard budget. negative records a "not found" result. The
// cache copies key and val; callers keep ownership of both.
func (c *Cache) Fill(key, val []byte, negative bool, ticket uint64) {
	if c == nil {
		return
	}
	h := hash(key)
	if c.marks[h&stripeMask].Load() != ticket {
		return // cheap early out; the check that counts is under the lock
	}
	s := &c.shards[(h>>32)&shardMask]
	s.mu.Lock()
	defer s.mu.Unlock()
	if c.marks[h&stripeMask].Load() != ticket || cost(len(key), len(val)) > s.budget || s.fenced(key, false) {
		return // stale, could never fit (inserting would just churn the shard), or fenced
	}
	e, resident := s.m[string(key)]
	if !resident {
		// New entries start with the reference bit clear: an entry that is
		// never touched again is the first victim (scan resistance), while
		// anything re-read before the hand arrives earns its second chance.
		e = &entry{key: string(key)}
		s.m[e.key] = e
		s.ring = append(s.ring, e)
		s.used += e.cost()
	}
	s.set(e, val, negative) // resident: a racing reader's fill of the same key
	s.fills++
	s.evict()
	// Dead entries (dropped by Update) are normally reclaimed by the clock,
	// but a shard living under budget never runs it — compact when the ring
	// is mostly corpses so it cannot grow without bound.
	if len(s.ring) > 2*len(s.m)+16 {
		s.compact()
	}
}

// set rewrites e in place, keeping its value buffer. Called with s.mu held.
func (s *shard) set(e *entry, val []byte, neg bool) {
	if neg {
		val = nil
	}
	s.used -= e.cost()
	e.val, e.neg = append(e.val[:0], val...), neg
	s.used += e.cost()
}

// remove takes e out of the map; its ring slot is reclaimed by the clock or
// by compact. Called with s.mu held.
func (s *shard) remove(e *entry) {
	delete(s.m, e.key)
	e.dead = true
	s.used -= e.cost()
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
		s.remove(e)
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
	st := Stats{CacheEnabled: true}
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		st.CacheHits += s.hits
		st.CacheNegHits += s.negHits
		st.CacheMisses += s.misses
		st.CacheFills += s.fills
		st.CacheEvictions += s.evicted
		st.CacheInvalidations += s.bumps
		st.CacheUpdates += s.updates
		st.CacheBytes += s.used
		st.CacheEntries += int64(len(s.m))
		s.mu.Unlock()
	}
	return st
}
