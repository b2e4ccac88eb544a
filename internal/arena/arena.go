// Package arena implements the bump allocators backing a memtable: a byte
// arena for its entries and a word slab for the skiplist's nodes. LSM
// memtables allocate millions of short-lived objects that all die together
// when the memtable is flushed; chunked bump allocation keeps them off the
// general-purpose heap one by one and makes the memtable's memory footprint
// directly observable (Table 2 accounting).
//
// An allocation has an address that is not a Go pointer — a Ref: chunk
// number, offset, length — so whoever links allocations together (the
// skiplist) can do it in plain integers, and a slab of bytes or words is
// memory the garbage collector never scans.
package arena

import (
	"reflect"
	"sync/atomic"
)

const defaultChunkSize = 1 << 20 // 1 MiB

// Slab is a chunked bump allocator of T. Alloc is safe for concurrent use;
// nothing is ever handed out twice, and freeing is wholesale via dropping
// the Slab.
type Slab[T any] struct {
	chunk    int   // elements per chunk
	elemSize int64 // bytes per element

	mu     chunkMutex
	cur    []T    // the unused tail of the current chunk
	curIdx uint32 // its place in chunks
	total  atomic.Int64

	// chunks is every chunk handed out from, in Ref.Chunk order, in a table
	// with room to spare: the first n slots are in use. Readers resolve Refs
	// while Alloc adds chunks, so a slot is written once, before any Ref into
	// its chunk exists, and a full table is replaced by a copy twice as long.
	chunks atomic.Pointer[[][]T]
	n      int
}

// Arena is the byte slab memtable entries are encoded into.
type Arena = Slab[byte]

// Ref addresses one allocation of a slab.
type Ref struct{ Chunk, Off, Len uint32 }

// chunkMutex is a tiny spinlock: allocation critical sections are a few
// instructions, and the concurrent memtable allocates on the write hot
// path where a full mutex costs more than it protects.
type chunkMutex struct{ v atomic.Int32 }

func (m *chunkMutex) lock() {
	for !m.v.CompareAndSwap(0, 1) {
	}
}
func (m *chunkMutex) unlock() { m.v.Store(0) }

// New creates a byte arena with the default 1 MiB chunk size.
func New() *Arena { return NewSlab[byte](defaultChunkSize) }

// NewSlab creates a slab that reserves chunk elements at a time.
func NewSlab[T any](chunk int) *Slab[T] {
	if chunk <= 0 {
		chunk = defaultChunkSize
	}
	return &Slab[T]{chunk: chunk, elemSize: int64(reflect.TypeFor[T]().Size())}
}

// Alloc returns n zeroed elements carved from the slab, with no spare
// capacity behind them, and their address. An allocation never straddles
// two chunks; one larger than a chunk gets a chunk of its own.
func (s *Slab[T]) Alloc(n int) ([]T, Ref) {
	if n > s.chunk {
		b := make([]T, n)
		s.mu.lock()
		idx := s.push(b)
		s.mu.unlock()
		return b, Ref{Chunk: idx, Len: uint32(n)}
	}
	s.mu.lock()
	if len(s.cur) < n {
		s.cur = make([]T, s.chunk)
		s.curIdx = s.push(s.cur)
	}
	ref := Ref{Chunk: s.curIdx, Off: uint32(s.chunk - len(s.cur)), Len: uint32(n)}
	b := s.cur[:n:n]
	s.cur = s.cur[n:]
	s.mu.unlock()
	return b, ref
}

// push publishes c as the next chunk and returns its number. Caller holds mu.
func (s *Slab[T]) push(c []T) uint32 {
	var table [][]T
	if p := s.chunks.Load(); p != nil {
		table = *p
	}
	if s.n == len(table) {
		grown := make([][]T, max(8, 2*len(table)))
		copy(grown, table)
		s.chunks.Store(&grown)
		table = grown
	}
	table[s.n] = c
	s.n++
	s.total.Add(int64(len(c)) * s.elemSize)
	return uint32(s.n - 1)
}

// Chunk returns chunk i whole. Whoever holds a Ref into it, however it
// learnt of it, may read what was written there before the Ref was shared.
func (s *Slab[T]) Chunk(i uint32) []T { return (*s.chunks.Load())[i] }

// At returns the allocation r addresses.
func (s *Slab[T]) At(r Ref) []T {
	end := r.Off + r.Len
	return s.Chunk(r.Chunk)[r.Off:end:end]
}

// Size reports the total bytes reserved by the slab (capacity, not the
// sum of live allocations) — the number a memtable compares against its
// write-buffer budget.
func (s *Slab[T]) Size() int64 { return s.total.Load() }
