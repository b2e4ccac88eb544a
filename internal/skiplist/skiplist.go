// Package skiplist provides the two skiplist flavours the paper's analysis
// contrasts (§2.2, §3.4): an exclusive-access skiplist (LevelDB-style
// MemTable, external synchronization required for writes) and a
// concurrent skiplist with lock-free CAS inserts (RocksDB's concurrent
// MemTable). Figure 8b's scalability gap between the shared concurrent
// skiplist and per-instance exclusive skiplists emerges from these two
// implementations.
//
// Both lists store opaque entries ordered by a caller-supplied comparator
// and never store duplicate-compare-equal entries' *positions* specially:
// entries must be unique under the comparator (the memtable guarantees
// this by suffixing keys with monotonically increasing sequence numbers).
//
// A list links the caller's entry, it does not copy it: the entry must
// already be where it will live (the memtable's arena) and must never be
// modified once inserted — readers compare against it without any lock.
// What a list allocates itself are nodes and towers, from typed slabs
// (arena.Slab) that die with the list: a node pays for a tower of its own
// height, not for maxHeight.
package skiplist

import (
	"math/rand"
	"sync"
	"sync/atomic"

	"p2kvs/internal/arena"
)

const (
	maxHeight = 12
	branching = 4

	// Slab chunk sizes, in elements: 4096 nodes (48 B each) carry about
	// 5,500 tower slots at branching 4, so the two slabs refill together.
	nodeChunk  = 4096
	towerChunk = 6144
)

// Comparator orders entries; negative when a<b, zero when equal.
type Comparator func(a, b []byte) int

// List is the read/write contract shared by both flavours. Writes to a
// Basic list require external synchronization; Concurrent supports fully
// parallel Insert. Reads are always safe concurrently with inserts.
type List interface {
	// Insert links entry; see the package comment for what the caller
	// promises about it.
	Insert(entry []byte)
	// FindGreaterOrEqual returns the first entry >= target, or nil.
	FindGreaterOrEqual(target []byte) []byte
	// Len reports the number of inserted entries.
	Len() int
	// ReservedBytes reports the memory reserved for nodes and towers.
	ReservedBytes() int64
	// Iterator returns a point-in-time-ish iterator (entries inserted
	// during iteration may or may not be observed).
	Iterator() Iterator
}

// Iterator walks a skiplist in ascending order with an O(1) Next.
type Iterator interface {
	SeekToFirst()
	Seek(target []byte)
	Next()
	Valid() bool
	Entry() []byte
}

// ---------------------------------------------------------------------------
// Concurrent skiplist (CAS inserts, RocksDB-style)
// ---------------------------------------------------------------------------

type cnode struct {
	entry []byte
	tower []atomic.Pointer[cnode] // one slot per level the node is linked at
}

// Concurrent is a lock-free-insert skiplist.
type Concurrent struct {
	cmp    Comparator
	nodes  *arena.Slab[cnode]
	towers *arena.Slab[atomic.Pointer[cnode]]
	head   *cnode
	height atomic.Int32
	count  atomic.Int64
	seed   atomic.Uint64
}

// NewConcurrent creates a concurrent skiplist.
func NewConcurrent(cmp Comparator) *Concurrent {
	s := &Concurrent{
		cmp:    cmp,
		nodes:  arena.NewSlab[cnode](nodeChunk),
		towers: arena.NewSlab[atomic.Pointer[cnode]](towerChunk),
		head:   &cnode{tower: make([]atomic.Pointer[cnode], maxHeight)},
	}
	s.height.Store(1)
	s.seed.Store(0x9E3779B97F4A7C15)
	return s
}

func (s *Concurrent) randomHeight() int {
	// xorshift on an atomic seed: cheap, contention-tolerant.
	for {
		old := s.seed.Load()
		x := old
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		if s.seed.CompareAndSwap(old, x) {
			h := 1
			for h < maxHeight && x%branching == 0 {
				h++
				x /= branching
			}
			return h
		}
	}
}

// Insert implements List. Safe for concurrent callers: the slabs hand each
// of them its own node and tower, and the node is published by the CAS
// that links it at level 0.
func (s *Concurrent) Insert(entry []byte) {
	height := s.randomHeight()
	n := &s.nodes.Alloc(1)[0]
	n.entry, n.tower = entry, s.towers.Alloc(height)

	// Raise the list height if needed.
	for {
		h := s.height.Load()
		if int(h) >= height || s.height.CompareAndSwap(h, int32(height)) {
			break
		}
	}

	// One top-down descent computes the splice at every level (O(log n));
	// CAS failures recompute only the affected level, restarting from the
	// stale prev (valid because nodes are never unlinked).
	var prev, next [maxHeight]*cnode
	p := s.head
	for level := maxHeight - 1; level >= 0; level-- {
		p2, n2 := s.findSpliceForLevel(entry, p, level)
		prev[level], next[level] = p2, n2
		p = p2
	}
	for level := 0; level < height; level++ {
		for {
			n.tower[level].Store(next[level])
			if prev[level].tower[level].CompareAndSwap(next[level], n) {
				break
			}
			prev[level], next[level] = s.findSpliceForLevel(entry, prev[level], level)
		}
	}
	s.count.Add(1)
}

// findSpliceForLevel walks level from start (which must compare < entry
// or be the head) to the splice position around entry.
func (s *Concurrent) findSpliceForLevel(entry []byte, start *cnode, level int) (prev, next *cnode) {
	prev = start
	for {
		next = prev.tower[level].Load()
		if next == nil || s.cmp(next.entry, entry) >= 0 {
			return prev, next
		}
		prev = next
	}
}

// findGE descends from the top level to find the first node >= target.
func (s *Concurrent) findGE(target []byte) *cnode {
	level := int(s.height.Load()) - 1
	prev := s.head
	for {
		next := prev.tower[level].Load()
		if next != nil && s.cmp(next.entry, target) < 0 {
			prev = next
			continue
		}
		if level == 0 {
			return next
		}
		level--
	}
}

// FindGreaterOrEqual implements List.
func (s *Concurrent) FindGreaterOrEqual(target []byte) []byte {
	if n := s.findGE(target); n != nil {
		return n.entry
	}
	return nil
}

// Len implements List.
func (s *Concurrent) Len() int { return int(s.count.Load()) }

// ReservedBytes implements List.
func (s *Concurrent) ReservedBytes() int64 { return s.nodes.Size() + s.towers.Size() }

// Iterator implements List. The cursor rides node pointers directly:
// safe under concurrent inserts because nodes are immutable once linked
// and never unlinked.
func (s *Concurrent) Iterator() Iterator { return &concurrentIter{s: s} }

type concurrentIter struct {
	s   *Concurrent
	cur *cnode
}

func (it *concurrentIter) SeekToFirst()       { it.cur = it.s.head.tower[0].Load() }
func (it *concurrentIter) Seek(target []byte) { it.cur = it.s.findGE(target) }
func (it *concurrentIter) Next() {
	if it.cur != nil {
		it.cur = it.cur.tower[0].Load()
	}
}
func (it *concurrentIter) Valid() bool { return it.cur != nil }
func (it *concurrentIter) Entry() []byte {
	return it.cur.entry
}

// ---------------------------------------------------------------------------
// Basic skiplist (exclusive writes, LevelDB-style)
// ---------------------------------------------------------------------------

type bnode struct {
	entry []byte
	next  []*bnode
}

// Basic is a skiplist whose Insert requires external synchronization;
// concurrent readers are safe with a single writer thanks to the
// publication order of pointer stores being guarded by an internal
// read-write mutex (the mutex is what the paper's "MemTable lock"
// measures for the non-concurrent memtable).
type Basic struct {
	cmp   Comparator
	nodes *arena.Slab[bnode]
	nexts *arena.Slab[*bnode]
	rng   *rand.Rand

	mu     sync.RWMutex
	head   *bnode
	height int
	count  int
}

// NewBasic creates an exclusive-write skiplist.
func NewBasic(cmp Comparator) *Basic {
	return &Basic{
		cmp:    cmp,
		nodes:  arena.NewSlab[bnode](nodeChunk),
		nexts:  arena.NewSlab[*bnode](towerChunk),
		rng:    rand.New(rand.NewSource(0xC0FFEE)),
		head:   &bnode{next: make([]*bnode, maxHeight)},
		height: 1,
	}
}

// Insert implements List. Callers must serialize Insert calls; the
// internal lock only protects readers from torn updates.
func (s *Basic) Insert(entry []byte) {
	height := 1
	for height < maxHeight && s.rng.Intn(branching) == 0 {
		height++
	}
	n := &s.nodes.Alloc(1)[0]
	n.entry, n.next = entry, s.nexts.Alloc(height)

	s.mu.Lock()
	if height > s.height {
		s.height = height
	}
	prev := s.head
	for level := s.height - 1; level >= 0; level-- {
		for prev.next[level] != nil && s.cmp(prev.next[level].entry, entry) < 0 {
			prev = prev.next[level]
		}
		if level < height {
			n.next[level] = prev.next[level]
			prev.next[level] = n
		}
	}
	s.count++
	s.mu.Unlock()
}

func (s *Basic) findGE(target []byte) *bnode {
	prev := s.head
	for level := s.height - 1; level >= 0; level-- {
		for prev.next[level] != nil && s.cmp(prev.next[level].entry, target) < 0 {
			prev = prev.next[level]
		}
		if level == 0 {
			return prev.next[0]
		}
	}
	return nil
}

// FindGreaterOrEqual implements List.
func (s *Basic) FindGreaterOrEqual(target []byte) []byte {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if n := s.findGE(target); n != nil {
		return n.entry
	}
	return nil
}

// Len implements List.
func (s *Basic) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.count
}

// ReservedBytes implements List.
func (s *Basic) ReservedBytes() int64 { return s.nodes.Size() + s.nexts.Size() }

// Iterator implements List. The read lock is taken per positioning call,
// so a single writer may interleave between steps; entries already
// visited stay valid (nodes are never unlinked).
func (s *Basic) Iterator() Iterator { return &basicIter{s: s} }

type basicIter struct {
	s   *Basic
	cur *bnode
}

func (it *basicIter) SeekToFirst() {
	it.s.mu.RLock()
	it.cur = it.s.head.next[0]
	it.s.mu.RUnlock()
}

func (it *basicIter) Seek(target []byte) {
	it.s.mu.RLock()
	it.cur = it.s.findGE(target)
	it.s.mu.RUnlock()
}

func (it *basicIter) Next() {
	if it.cur == nil {
		return
	}
	it.s.mu.RLock()
	it.cur = it.cur.next[0]
	it.s.mu.RUnlock()
}

func (it *basicIter) Valid() bool   { return it.cur != nil }
func (it *basicIter) Entry() []byte { return it.cur.entry }
