// Package skiplist provides the two skiplist flavours the paper's analysis
// contrasts (§2.2, §3.4): an exclusive-access skiplist (LevelDB-style
// MemTable, external synchronization required for writes) and a
// concurrent skiplist with lock-free CAS inserts (RocksDB's concurrent
// MemTable). Figure 8b's scalability gap between the shared concurrent
// skiplist and per-instance exclusive skiplists emerges from these two.
//
// The flavours are one List: one node layout, one descent. They differ in
// how an insert stores its links — a CAS per level, or plain stores inside
// a mutex that readers share.
//
// A list orders internal keys (package ikey: user key ascending, 8-byte
// trailer descending) that it does not hold: a key must already be where it
// will live, in the memtable's arena, and is linked by its arena.Ref, never
// copied and never to be modified afterwards. Keys must be unique (the
// memtable guarantees it: a trailer carries a sequence number).
//
// A node is a run of words in a pointer-free slab: the first 16 bytes of
// the user key as two big-endian words, zero-padded (the abbreviation), the
// key's Ref, and one link — the slab address of the next node — for each
// level the node is linked at. Abbreviations order as the user keys do
// wherever they differ, so a descent step reads the one node and decides
// there; the key's bytes are read only on a tie: versions of one user key,
// user keys that share their first 16 bytes, or one shorter than 16 bytes
// against itself zero-extended.
package skiplist

import (
	"bytes"
	"encoding/binary"
	"math/bits"
	"math/rand/v2"
	"sync"
	"sync/atomic"

	"p2kvs/internal/arena"
	"p2kvs/internal/ikey"
)

const (
	maxHeight = 12 // branching 4: a level up for every two zero bits drawn

	// Node slab chunks of 32 Ki words (128 KiB); a link is chunk<<nodeShift|offset
	// (2^17 chunks: 16 GiB of nodes).
	nodeShift = 15
	nodeMask  = 1<<nodeShift - 1

	// Word offsets in a node. Link 0 is the head's address and nothing links
	// to the head, so it doubles as "no next node".
	wK0, wK1, wRef, wLinks = 0, 2, 4, 7
)

// List is a skiplist of either flavour. Reads are always safe concurrently
// with inserts; see NewConcurrent and NewBasic for inserts.
type List struct {
	keys   *arena.Arena
	nodes  *arena.Slab[uint32]
	mu     *sync.RWMutex // the basic flavour's; nil in the concurrent one
	height atomic.Int32
	count  atomic.Int64
}

// NewConcurrent creates a skiplist over internal keys in keys whose Insert
// is safe for concurrent callers: lock-free, a node is published by the CAS
// that links it at level 0.
func NewConcurrent(keys *arena.Arena) *List {
	l := &List{keys: keys, nodes: arena.NewSlab[uint32](1 << nodeShift)}
	l.nodes.Alloc(wLinks + maxHeight) // the head: address 0, no key, every level
	l.height.Store(1)
	return l
}

// NewBasic creates a skiplist whose Insert calls the caller must serialize.
// It stores a node's links inside a mutex that every read takes shared —
// the "MemTable lock" the paper measures for the non-concurrent memtable.
func NewBasic(keys *arena.Arena) *List {
	l := NewConcurrent(keys)
	l.mu = new(sync.RWMutex)
	return l
}

// position is what a descent steers by: a user key, abbreviated once, and a trailer.
type position struct {
	k0, k1  uint64
	key     []byte
	trailer uint64
}

func newPosition(key []byte, trailer uint64) position {
	p := position{key: key, trailer: trailer}
	if len(key) >= 16 {
		p.k0, p.k1 = binary.BigEndian.Uint64(key), binary.BigEndian.Uint64(key[8:])
	} else {
		var pad [16]byte
		copy(pad[:], key)
		p.k0, p.k1 = binary.BigEndian.Uint64(pad[:]), binary.BigEndian.Uint64(pad[8:])
	}
	return p
}

// node returns the words from node n's first to the end of its chunk.
func (l *List) node(n uint32) []uint32 { return l.nodes.Chunk(n >> nodeShift)[n&nodeMask:] }

func ref(w []uint32) arena.Ref { return arena.Ref{Chunk: w[wRef], Off: w[wRef+1], Len: w[wRef+2]} }

// tieBefore reports whether the node with words w, whose abbreviation equals
// p's, orders before p: the one comparison that reads the key's bytes.
func (l *List) tieBefore(w []uint32, p *position) bool {
	key, trailer := ikey.Split(l.keys.At(ref(w)))
	if c := bytes.Compare(key, p.key); c != 0 {
		return c < 0
	}
	return trailer > p.trailer
}

// splice walks level from prev (which orders before p, or is the head) to
// the two nodes p falls between.
func (l *List) splice(p *position, prev uint32, level int) (uint32, uint32) {
	pw := l.node(prev)
	for {
		next := atomic.LoadUint32(&pw[wLinks+level])
		if next == 0 {
			return prev, 0
		}
		nw := l.node(next)
		w := nw[:wLinks] // one bounds check, and no read of a link word
		var before bool
		if k0 := uint64(w[wK0]) | uint64(w[wK0+1])<<32; k0 != p.k0 {
			before = k0 < p.k0
		} else if k1 := uint64(w[wK1]) | uint64(w[wK1+1])<<32; k1 != p.k1 {
			before = k1 < p.k1
		} else {
			before = l.tieBefore(w, p)
		}
		if !before {
			return prev, next
		}
		prev, pw = next, nw
	}
}

// Insert links the internal key that lives at key.
func (l *List) Insert(key arena.Ref) {
	// The runtime's per-thread source: an insert writes no shared word
	// before its links.
	l.insert(key, 1+bits.TrailingZeros32(rand.Uint32()|1<<(2*maxHeight-2))/2)
}

func (l *List) insert(key arena.Ref, height int) {
	p := newPosition(ikey.Split(l.keys.At(key)))
	w, at := l.nodes.Alloc(wLinks + height)
	n := at.Chunk<<nodeShift | at.Off
	w[wK0], w[wK0+1], w[wK1], w[wK1+1] = uint32(p.k0), uint32(p.k0>>32), uint32(p.k1), uint32(p.k1>>32)
	w[wRef], w[wRef+1], w[wRef+2] = key.Chunk, key.Off, key.Len

	top := l.height.Load()
	for int(top) < height && !l.height.CompareAndSwap(top, int32(height)) {
		top = l.height.Load()
	}

	// One descent from the list's height computes the splice at every level
	// (O(log n)); levels above it are empty, the zero value.
	var prev, next [maxHeight]uint32
	from := uint32(0)
	for level := max(int(top), height) - 1; level >= 0; level-- {
		from, next[level] = l.splice(&p, from, level)
		prev[level] = from
	}
	if l.mu != nil {
		l.mu.Lock()
		for level := 0; level < height; level++ {
			w[wLinks+level] = next[level]
			l.node(prev[level])[wLinks+level] = n
		}
		l.mu.Unlock()
	} else {
		// The node's own link needs no atomic store: nothing reads it at a
		// level before the CAS that links the node there. A failed CAS
		// recomputes that level only, from the stale prev (valid because
		// nodes are never unlinked).
		for level := 0; level < height; level++ {
			for {
				w[wLinks+level] = next[level]
				if atomic.CompareAndSwapUint32(&l.node(prev[level])[wLinks+level], next[level], n) {
					break
				}
				prev[level], next[level] = l.splice(&p, prev[level], level)
			}
		}
	}
	l.count.Add(1)
}

// findGE descends from the top level to the first node at or after p.
func (l *List) findGE(p position) uint32 {
	if l.mu != nil {
		l.mu.RLock()
		defer l.mu.RUnlock()
	}
	prev, next := uint32(0), uint32(0)
	for level := int(l.height.Load()) - 1; level >= 0; level-- {
		prev, next = l.splice(&p, prev, level)
	}
	return next
}

// successor returns the node after n at level 0.
func (l *List) successor(n uint32) uint32 {
	if l.mu != nil {
		l.mu.RLock()
		defer l.mu.RUnlock()
	}
	return atomic.LoadUint32(&l.node(n)[wLinks])
}

// FindGreaterOrEqual returns the first internal key at or after (key,
// trailer), if there is one.
func (l *List) FindGreaterOrEqual(key []byte, trailer uint64) (arena.Ref, bool) {
	if n := l.findGE(newPosition(key, trailer)); n != 0 {
		return ref(l.node(n)), true
	}
	return arena.Ref{}, false
}

// Len reports the number of inserted keys.
func (l *List) Len() int { return int(l.count.Load()) }

// ReservedBytes reports the memory reserved for nodes.
func (l *List) ReservedBytes() int64 { return l.nodes.Size() }

// Iterator walks a list in ascending order with an O(1) Next. It is
// point-in-time-ish: keys inserted during iteration may or may not be
// observed, those already visited stay valid (nodes are never unlinked).
// The basic flavour's lock is taken per positioning call.
type Iterator struct {
	l   *List
	cur uint32
}

// Iterator returns an unpositioned iterator.
func (l *List) Iterator() Iterator { return Iterator{l: l} }

func (it *Iterator) SeekToFirst() { it.cur = it.l.successor(0) }
func (it *Iterator) Seek(key []byte, trailer uint64) {
	it.cur = it.l.findGE(newPosition(key, trailer))
}
func (it *Iterator) Next() {
	if it.cur != 0 {
		it.cur = it.l.successor(it.cur)
	}
}
func (it *Iterator) Valid() bool    { return it.cur != 0 }
func (it *Iterator) Key() arena.Ref { return ref(it.l.node(it.cur)) }
