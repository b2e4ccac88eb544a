// Package block implements the sorted key/value blocks that SSTables are
// made of, using LevelDB's restart-point prefix compression: within a run
// of entries, each key stores only its divergence from the previous key;
// every restartInterval entries a full key is stored and indexed so
// readers can binary-search restarts then scan at most one interval.
package block

import (
	"bytes"
	"encoding/binary"
	"errors"

	"p2kvs/internal/ikey"
)

const restartInterval = 16

// Builder accumulates entries (added in ascending key order) and emits the
// encoded block.
type Builder struct {
	buf      bytes.Buffer
	restarts []uint32
	counter  int
	lastKey  []byte
	entries  int
}

// Add appends an entry. Keys must be strictly ascending.
func (b *Builder) Add(key, value []byte) {
	shared := 0
	if b.counter < restartInterval {
		n := len(b.lastKey)
		if len(key) < n {
			n = len(key)
		}
		for shared < n && b.lastKey[shared] == key[shared] {
			shared++
		}
	} else {
		b.restarts = append(b.restarts, uint32(b.buf.Len()))
		b.counter = 0
	}
	var tmp [3 * binary.MaxVarintLen32]byte
	n := binary.PutUvarint(tmp[:], uint64(shared))
	n += binary.PutUvarint(tmp[n:], uint64(len(key)-shared))
	n += binary.PutUvarint(tmp[n:], uint64(len(value)))
	b.buf.Write(tmp[:n])
	b.buf.Write(key[shared:])
	b.buf.Write(value)

	b.lastKey = append(b.lastKey[:0], key...)
	b.counter++
	b.entries++
}

// EstimatedSize reports the current encoded size.
func (b *Builder) EstimatedSize() int {
	return b.buf.Len() + 4*(len(b.restarts)+2)
}

// Empty reports whether no entries were added.
func (b *Builder) Empty() bool { return b.entries == 0 }

// Entries reports the number of entries added.
func (b *Builder) Entries() int { return b.entries }

// Finish encodes the restart array and returns the complete block.
func (b *Builder) Finish() []byte {
	var tmp [4]byte
	b.buf.Write(tmp[:]) // the first entry is always a restart point, at offset 0
	for _, r := range b.restarts {
		binary.LittleEndian.PutUint32(tmp[:], r)
		b.buf.Write(tmp[:])
	}
	binary.LittleEndian.PutUint32(tmp[:], uint32(len(b.restarts)+1))
	b.buf.Write(tmp[:])
	return b.buf.Bytes()
}

// Reset clears the builder for reuse.
func (b *Builder) Reset() {
	b.buf.Reset()
	b.restarts = b.restarts[:0]
	b.counter = 0
	b.lastKey = b.lastKey[:0]
	b.entries = 0
}

// ---------------------------------------------------------------------------
// Reader / iterator
// ---------------------------------------------------------------------------

// ErrCorrupt reports a malformed block.
var ErrCorrupt = errors.New("block: corrupt")

// inlineKey is the key length an Iter materialises without touching the
// heap; longer keys spill into an allocated buffer that later entries reuse.
const inlineKey = 64

// Iter iterates over an encoded block. It reads the block in place: the
// restart array is never decoded, restart keys are compared where they lie,
// and the one key an entry scan has to materialise (prefix compression)
// lands in an array inside the Iter — so an Iter declared as a local
// variable and positioned with Init costs no allocation.
type Iter struct {
	data     []byte // entry region
	restarts []byte // encoded restart array, 4 bytes per restart point

	off   int // offset of the *next* entry to decode
	value []byte
	valid bool
	err   error

	// The current key is keyBuf[:keyLen] until one outgrows the array;
	// from then on it lives in spill (non-nil marks that mode). An index
	// into the array, not a slice of it: a struct holding a pointer to
	// itself could not stay on the stack.
	keyLen int
	spill  []byte
	keyBuf [inlineKey]byte
}

// Init points the iterator at an encoded block, unpositioned, after checking
// that the restart array is well formed and every restart offset lies inside
// the entry region. It may be called again to reuse the Iter for another
// block; a spilled key buffer is kept, so long keys cost one allocation per
// Iter, not one per block.
func (it *Iter) Init(block []byte) error {
	*it = Iter{spill: it.spill[:0]}
	if len(block) < 4 {
		return ErrCorrupt
	}
	n := int(binary.LittleEndian.Uint32(block[len(block)-4:]))
	tail := 4 + 4*n
	if n < 1 || tail > len(block) {
		return ErrCorrupt
	}
	restartOff := len(block) - tail
	restarts := block[restartOff : len(block)-4]
	for i := 0; i < len(restarts); i += 4 {
		if int(binary.LittleEndian.Uint32(restarts[i:])) > restartOff {
			return ErrCorrupt
		}
	}
	it.data, it.restarts = block[:restartOff], restarts
	return nil
}

func (it *Iter) numRestarts() int { return len(it.restarts) / 4 }

func (it *Iter) restart(i int) int {
	return int(binary.LittleEndian.Uint32(it.restarts[4*i:]))
}

// fail leaves the iterator invalid, recording corruption when corrupt.
func (it *Iter) fail(corrupt bool) {
	it.valid = false
	if corrupt {
		it.err = ErrCorrupt
	}
}

// entryAt decodes the header of the entry at off: its shared-prefix length,
// its unshared key bytes and value (both slices of the block) and the offset
// of the entry after it. ok is false at the end of the entry region and on
// corruption, which it records.
func (it *Iter) entryAt(off int) (shared int, unshared, value []byte, next int, ok bool) {
	if off >= len(it.data) {
		it.fail(false)
		return 0, nil, nil, off, false
	}
	s, n1 := binary.Uvarint(it.data[off:])
	if n1 <= 0 {
		it.fail(true)
		return 0, nil, nil, off, false
	}
	u, n2 := binary.Uvarint(it.data[off+n1:])
	if n2 <= 0 {
		it.fail(true)
		return 0, nil, nil, off, false
	}
	v, n3 := binary.Uvarint(it.data[off+n1+n2:])
	if n3 <= 0 {
		it.fail(true)
		return 0, nil, nil, off, false
	}
	p := off + n1 + n2 + n3
	// Compared as uint64 so an absurd length cannot wrap the sum.
	if u > uint64(len(it.data)-p) || v > uint64(len(it.data)-p)-u {
		it.fail(true)
		return 0, nil, nil, off, false
	}
	end := p + int(u) + int(v)
	return int(s), it.data[p : p+int(u)], it.data[p+int(u) : end], end, true
}

// decodeAt decodes the entry at off on top of the previous entry's key (the
// current Key), and returns the offset of the next entry.
func (it *Iter) decodeAt(off int) (next int, ok bool) {
	shared, unshared, value, next, ok := it.entryAt(off)
	if !ok {
		return off, false
	}
	if shared > len(it.Key()) {
		it.fail(true)
		return off, false
	}
	switch n := shared + len(unshared); {
	case it.spill != nil:
		it.spill = append(it.spill[:shared], unshared...)
	case n <= inlineKey:
		copy(it.keyBuf[shared:], unshared)
		it.keyLen = n
	default:
		it.spill = append(append(make([]byte, 0, 2*n), it.keyBuf[:shared]...), unshared...)
	}
	it.value = value
	it.valid = true
	return next, true
}

// resetKey empties the previous-key state ahead of decoding a restart entry.
func (it *Iter) resetKey() {
	it.keyLen = 0
	if it.spill != nil {
		it.spill = it.spill[:0]
	}
}

// SeekToFirst positions at the first entry.
func (it *Iter) SeekToFirst() {
	it.resetKey()
	it.off, _ = it.decodeAt(0)
}

// Seek positions at the first entry with key >= target under bytewise
// ordering.
func (it *Iter) Seek(target []byte) { it.seek(target, false) }

// SeekInternal is Seek for a block of internal keys (ikey.Compare order:
// user key ascending, newer versions first), which is what SSTable data and
// index blocks hold.
func (it *Iter) SeekInternal(target []byte) { it.seek(target, true) }

// compare is a static dispatch on purpose: a comparator passed as a func
// value would make every key and seek target escape to the heap.
func compare(internal bool, a, b []byte) int {
	if internal {
		return ikey.Compare(a, b)
	}
	return bytes.Compare(a, b)
}

func (it *Iter) seek(target []byte, internal bool) {
	// Binary search the restart points for the last restart whose full
	// key is < target. A restart entry shares nothing with its
	// predecessor, so its key is compared where it lies in the block.
	lo, hi := 0, it.numRestarts()-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		shared, key, _, _, ok := it.entryAt(it.restart(mid))
		if !ok {
			return
		}
		if shared != 0 || (internal && len(key) < ikey.TrailerLen) {
			it.fail(true)
			return
		}
		if compare(internal, key, target) < 0 {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	// Linear scan from the chosen restart.
	it.resetKey()
	off := it.restart(lo)
	for {
		next, ok := it.decodeAt(off)
		if !ok {
			return
		}
		it.off = next
		key := it.Key()
		if internal && len(key) < ikey.TrailerLen {
			it.fail(true)
			return
		}
		if compare(internal, key, target) >= 0 {
			return
		}
		off = next
	}
}

// Next advances to the following entry.
func (it *Iter) Next() {
	if !it.valid {
		return
	}
	it.off, _ = it.decodeAt(it.off)
}

// Valid reports whether the iterator is positioned at an entry.
func (it *Iter) Valid() bool { return it.valid }

// Key returns the current key (valid until the next call).
func (it *Iter) Key() []byte {
	if it.spill != nil {
		return it.spill
	}
	return it.keyBuf[:it.keyLen]
}

// Value returns the current value, a slice of the block.
func (it *Iter) Value() []byte { return it.value }

// Err returns the first corruption error encountered.
func (it *Iter) Err() error { return it.err }
