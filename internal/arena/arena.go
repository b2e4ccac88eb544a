// Package arena implements the bump allocators backing a memtable: a byte
// arena for its entries and typed slabs for the skiplist's nodes and
// towers. LSM memtables allocate millions of short-lived objects that all
// die together when the memtable is flushed; chunked bump allocation keeps
// them off the general-purpose heap one by one and makes the memtable's
// memory footprint directly observable (Table 2 accounting).
package arena

import (
	"reflect"
	"sync/atomic"
)

const defaultChunkSize = 1 << 20 // 1 MiB

// Slab is a chunked bump allocator of T. Alloc is safe for concurrent use;
// nothing is ever handed out twice, and freeing is wholesale via dropping
// the Slab. Go pointers may live in a Slab's elements (they may not in a
// byte arena), which is why skiplist nodes get slabs of their own type.
type Slab[T any] struct {
	chunk    int   // elements per chunk
	elemSize int64 // bytes per element

	mu    chunkMutex
	cur   []T // the unused tail of the current chunk
	total atomic.Int64
}

// Arena is the byte slab memtable entries are encoded into.
type Arena = Slab[byte]

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
// capacity behind them.
func (s *Slab[T]) Alloc(n int) []T {
	if n > s.chunk {
		// Oversized allocations get dedicated chunks.
		s.total.Add(int64(n) * s.elemSize)
		return make([]T, n)
	}
	s.mu.lock()
	if len(s.cur) < n {
		s.cur = make([]T, s.chunk)
		s.total.Add(int64(s.chunk) * s.elemSize)
	}
	b := s.cur[:n:n]
	s.cur = s.cur[n:]
	s.mu.unlock()
	return b
}

// Size reports the total bytes reserved by the slab (capacity, not the
// sum of live allocations) — the number a memtable compares against its
// write-buffer budget.
func (s *Slab[T]) Size() int64 { return s.total.Load() }
