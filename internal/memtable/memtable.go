// Package memtable implements the in-memory write buffer of the LSM
// engine (Figure 2's MemTable). Entries are stored in a skiplist —
// exclusive (LevelDB-style) or concurrent (RocksDB's concurrent memtable)
// per the engine's configuration — keyed by internal keys so multiple
// versions of a user key coexist until flush.
//
// Entry encoding inside the skiplist: varint(len(ikey)) | ikey |
// varint(len(value)) | value, where ikey = ukey | trailer. Add encodes an
// entry once, straight into the arena, and links those bytes; they never
// change afterwards, which is what lets readers compare against and return
// slices of them without a lock.
package memtable

import (
	"encoding/binary"
	"math/bits"
	"sync"
	"sync/atomic"

	"p2kvs/internal/arena"
	"p2kvs/internal/ikey"
	"p2kvs/internal/skiplist"
)

// MemTable buffers writes until it reaches its budget and is flushed.
type MemTable struct {
	list  skiplist.List
	arena *arena.Arena
	size  atomic.Int64 // approximate payload bytes
}

// New creates a memtable. concurrent selects the CAS skiplist.
func New(concurrent bool) *MemTable {
	ar := arena.New()
	var list skiplist.List
	if concurrent {
		list = skiplist.NewConcurrent(entryCompare)
	} else {
		list = skiplist.NewBasic(entryCompare)
	}
	return &MemTable{list: list, arena: ar}
}

// entryCompare orders encoded entries by their internal keys.
func entryCompare(a, b []byte) int {
	return ikey.Compare(entryKey(a), entryKey(b))
}

func entryKey(e []byte) []byte {
	klen, n := binary.Uvarint(e)
	return e[n : n+int(klen)]
}

func entryValue(e []byte) []byte {
	klen, n := binary.Uvarint(e)
	rest := e[n+int(klen):]
	vlen, m := binary.Uvarint(rest)
	return rest[m : m+int(vlen)]
}

// appendEntry appends the encoded entry for a version of ukey to dst.
func appendEntry(dst []byte, seq uint64, kind ikey.Kind, ukey, value []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(ukey)+ikey.TrailerLen))
	dst = ikey.Encode(dst, ukey, seq, kind)
	dst = binary.AppendUvarint(dst, uint64(len(value)))
	return append(dst, value...)
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
	entry := appendEntry(m.arena.Alloc(size)[:0], seq, kind, ukey, value)
	m.list.Insert(entry)
	m.size.Add(int64(size) + 32) // payload + node overhead estimate
}

// seekBufs recycles the encoded seek entry a Get hands the skiplist. The
// list is reached through an interface and compares through a func value,
// so the entry cannot live on Get's stack; a pooled buffer keeps the probe —
// which every point lookup makes, hit or miss — off the heap.
var seekBufs = sync.Pool{New: func() any { return new([]byte) }}

// Get returns the newest version of ukey visible at snapshot seq. The
// returned value is a slice of the memtable's own entry.
func (m *MemTable) Get(ukey []byte, seq uint64) (value []byte, found, deleted bool) {
	buf := seekBufs.Get().(*[]byte)
	// The seek entry: the newest visible version, with an empty value.
	seek := appendEntry((*buf)[:0], seq, ikey.KindSet, ukey, nil)
	e := m.list.FindGreaterOrEqual(seek)
	*buf = seek
	seekBufs.Put(buf)
	if e == nil {
		return nil, false, false
	}
	ik := entryKey(e)
	gotUkey, _, kind, err := ikey.Decode(ik)
	if err != nil || string(gotUkey) != string(ukey) {
		return nil, false, false
	}
	if kind == ikey.KindDelete {
		return nil, true, true
	}
	return entryValue(e), true, false
}

// ApproximateSize reports buffered bytes for flush decisions.
func (m *MemTable) ApproximateSize() int64 { return m.size.Load() }

// ReservedBytes reports the memory the memtable holds on to: the entry
// arena plus the skiplist's node and tower slabs (Table 2 accounting).
// Entries live only in the arena and a node pays for its own height, so
// this tracks ApproximateSize instead of exceeding it by half.
func (m *MemTable) ReservedBytes() int64 { return m.arena.Size() + m.list.ReservedBytes() }

// Len reports the number of buffered versions.
func (m *MemTable) Len() int { return m.list.Len() }

// Empty reports whether no entries are buffered.
func (m *MemTable) Empty() bool { return m.list.Len() == 0 }

// Iter walks the memtable's internal keys in ascending ikey order.
type Iter struct {
	it skiplist.Iterator
}

// NewIterator returns an iterator over (internal key, value) entries.
func (m *MemTable) NewIterator() *Iter { return &Iter{it: m.list.Iterator()} }

// SeekToFirst positions at the first entry.
func (it *Iter) SeekToFirst() { it.it.SeekToFirst() }

// Seek positions at the first entry with internal key >= target.
func (it *Iter) Seek(target []byte) {
	seek := binary.AppendUvarint(make([]byte, 0, len(target)+binary.MaxVarintLen32+1), uint64(len(target)))
	it.it.Seek(append(append(seek, target...), 0))
}

// Next advances.
func (it *Iter) Next() { it.it.Next() }

// Valid reports whether positioned at an entry.
func (it *Iter) Valid() bool { return it.it.Valid() }

// Key returns the current internal key.
func (it *Iter) Key() []byte { return entryKey(it.it.Entry()) }

// Value returns the current value.
func (it *Iter) Value() []byte { return entryValue(it.it.Entry()) }
