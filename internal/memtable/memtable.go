// Package memtable implements the in-memory write buffer of the LSM
// engine (Figure 2's MemTable). Entries are stored in a skiplist —
// exclusive (LevelDB-style) or concurrent (RocksDB's concurrent memtable)
// per the engine's configuration — keyed by internal keys so multiple
// versions of a user key coexist until flush.
//
// Entry encoding: varint(len(ikey)) | ikey | varint(len(value)) | value,
// where ikey = ukey | trailer. Add encodes an entry once, straight into the
// arena, and hands the list the address of the ikey inside it; Get and Seek
// name what they look for as (user key, trailer), so nothing is encoded to
// be searched for. The list decides from a node's abbreviated user key and
// reads the arena only on a tie — the versions of one user key (newest
// first), user keys that share their first 16 bytes. The bytes never change
// once linked, which is what lets readers compare against and return slices
// of them without a lock.
//
// Every memtable also keeps a whole-key filter, so a point lookup skips the
// descent for a key the memtable cannot hold (RocksDB's
// memtable_whole_key_filtering): one 64-bit word per key, 5 bits set in it,
// one filter bit per 16 bytes of the memtable's budget. The word and the bits
// come from murmur3's fmix64 of the key's bloom.Hash, never from that hash's
// low bits, which the hash partitioner fixes per worker. The caller hashes a
// key once per lookup and hands Get that hash. Add sets the bits before the
// node is linked, Get tests them before it descends, and nothing clears
// them, so a key whose Add has returned is never filtered out.
package memtable

import (
	"encoding/binary"
	"math/bits"
	"sync/atomic"

	"p2kvs/internal/arena"
	"p2kvs/internal/bloom"
	"p2kvs/internal/ikey"
	"p2kvs/internal/skiplist"
)

// MemTable buffers writes until it reaches its budget and is flushed.
type MemTable struct {
	list   *skiplist.List
	arena  *arena.Arena
	filter filter
	size   atomic.Int64 // approximate payload bytes
}

// budgetPerFilterBit is how many bytes of a memtable's budget buy one bit of
// its filter: a 4 MiB memtable gets 4,096 words, about 11.7 bits for each of
// the ~22.5 k entries of 16-byte keys and 128-byte values that fill it.
const budgetPerFilterBit = 16

// New creates a memtable whose filter is sized for budget bytes of entries
// (the engine's rotation threshold). concurrent selects the CAS skiplist.
func New(concurrent bool, budget int64) *MemTable {
	m := &MemTable{arena: arena.New(), filter: make(filter, max(budget/(64*budgetPerFilterBit), 1))}
	if concurrent {
		m.list = skiplist.NewConcurrent(m.arena)
	} else {
		m.list = skiplist.NewBasic(m.arena)
	}
	return m
}

// entryValue returns the value of the entry whose internal key is at ik:
// what follows the key, behind its length.
func (m *MemTable) entryValue(ik arena.Ref) []byte {
	rest := m.arena.Chunk(ik.Chunk)[ik.Off+ik.Len:]
	vlen, n := binary.Uvarint(rest)
	end := n + int(vlen)
	return rest[n:end:end]
}

func uvarintLen(x int) int { return (bits.Len64(uint64(x)|1) + 6) / 7 }

// Add inserts a version of ukey. Concurrency rules follow the underlying
// skiplist: the concurrent flavour accepts parallel Add calls, the basic
// flavour requires the caller (the engine's write path) to serialize.
func (m *MemTable) Add(seq uint64, kind ikey.Kind, ukey, value []byte) {
	klen := len(ukey) + ikey.TrailerLen
	size := uvarintLen(klen) + klen + uvarintLen(len(value)) + len(value)
	// The arena slice has exactly the entry's capacity, so the appends
	// below fill it in place and cannot move it.
	buf, ref := m.arena.Alloc(size)
	buf = binary.AppendUvarint(buf[:0], uint64(klen))
	ref.Off, ref.Len = ref.Off+uint32(len(buf)), uint32(klen) // the ikey's place in the entry
	buf = ikey.Encode(buf, ukey, seq, kind)
	buf = binary.AppendUvarint(buf, uint64(len(value)))
	_ = append(buf, value...)
	m.filter.add(bloom.Hash(ukey))
	m.list.Insert(ref)
	m.size.Add(int64(size) + 32) // payload + node overhead estimate
}

// Get returns the newest version of ukey visible at snapshot seq; hash is
// bloom.Hash(ukey). The returned value is a slice of the memtable's own entry.
func (m *MemTable) Get(ukey []byte, hash uint32, seq uint64) (value []byte, found, deleted bool) {
	if !m.filter.mayContain(hash) {
		return nil, false, false
	}
	ref, ok := m.list.FindGreaterOrEqual(ukey, ikey.Trailer(seq, ikey.KindSet))
	if !ok {
		return nil, false, false
	}
	gotUkey, _, kind, err := ikey.Decode(m.arena.At(ref))
	if err != nil || string(gotUkey) != string(ukey) {
		return nil, false, false
	}
	if kind == ikey.KindDelete {
		return nil, true, true
	}
	return m.entryValue(ref), true, false
}

// ApproximateSize reports buffered bytes for flush decisions.
func (m *MemTable) ApproximateSize() int64 { return m.size.Load() }

// ReservedBytes reports the memory the memtable holds on to: the entry
// arena, the skiplist's node slab and the filter (Table 2 accounting).
// Entries live only in the arena and a node pays for its own height, so this
// tracks ApproximateSize instead of exceeding it by half.
func (m *MemTable) ReservedBytes() int64 {
	return m.arena.Size() + m.list.ReservedBytes() + 8*int64(len(m.filter))
}

// Len reports the number of buffered versions.
func (m *MemTable) Len() int { return m.list.Len() }

// Empty reports whether no entries are buffered.
func (m *MemTable) Empty() bool { return m.list.Len() == 0 }

// filter is the whole-key filter: a bloom filter blocked to one word, whose
// words are only ever ORed into.
type filter []atomic.Uint64

// slot returns the word a key's hash selects and the 5 bits it owns there:
// the word from the mix's high half, the bits from five 6-bit fields of its
// low half.
func (f filter) slot(hash uint32) (*atomic.Uint64, uint64) {
	x := fmix64(uint64(hash))
	w := &f[(x>>32)*uint64(len(f))>>32]
	return w, 1<<(x&63) | 1<<(x>>6&63) | 1<<(x>>12&63) | 1<<(x>>18&63) | 1<<(x>>24&63)
}

// add sets a key's bits. go.mod's Go has no atomic OR, so it is a CAS loop
// that stops as soon as the bits are set.
func (f filter) add(hash uint32) {
	w, bits := f.slot(hash)
	for old := w.Load(); old&bits != bits && !w.CompareAndSwap(old, old|bits); old = w.Load() {
	}
}

// mayContain reports false only for a key that add never saw.
func (f filter) mayContain(hash uint32) bool {
	w, bits := f.slot(hash)
	return w.Load()&bits == bits
}

// fmix64 is murmur3's 64-bit finalizer: every input bit flips each output
// bit with probability one half.
func fmix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// Iter walks the memtable's internal keys in ascending ikey order.
type Iter struct {
	m  *MemTable
	it skiplist.Iterator
}

// NewIterator returns an iterator over (internal key, value) entries.
func (m *MemTable) NewIterator() *Iter { return &Iter{m: m, it: m.list.Iterator()} }

// SeekToFirst positions at the first entry.
func (it *Iter) SeekToFirst() { it.it.SeekToFirst() }

// Seek positions at the first entry with internal key >= target.
func (it *Iter) Seek(target []byte) { it.it.Seek(ikey.Split(target)) }

// Next advances.
func (it *Iter) Next() { it.it.Next() }

// Valid reports whether positioned at an entry.
func (it *Iter) Valid() bool { return it.it.Valid() }

// Key returns the current internal key.
func (it *Iter) Key() []byte { return it.m.arena.At(it.it.Key()) }

// Value returns the current value.
func (it *Iter) Value() []byte { return it.m.entryValue(it.it.Key()) }

// Error reports nil: a walk of memory cannot fail.
func (it *Iter) Error() error { return nil }

// Close releases nothing: the memtable owns the entries.
func (it *Iter) Close() error { return nil }
