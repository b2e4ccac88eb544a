// Package sstable implements the Sorted String Tables that populate the
// on-disk LSM-tree levels (Figure 2). A table is a sequence of
// prefix-compressed data blocks followed by a bloom-filter block, an index
// block (one separator entry per data block) and a fixed footer.
//
// Every stored block — data, filter and index — is sealed with a CRC-32C
// trailer, and the footer checksums itself:
//
//	[sealed data block]*  [sealed filter]  [sealed index]  [footer (56B)]
//
// Footer: filterOff u64 | filterLen u64 | indexOff u64 | indexLen u64 |
// entries u64 | crc32c u32 (over the first 40 bytes) | pad u32 | magic u64.
//
// Readers verify every block on load and surface mismatches as
// kv.CorruptionError — a flipped bit at rest is detected, never served.
// This is the only table format: a file ending in any other magic (the
// unchecksummed 48-byte footer of before PR 7 included) fails Open, and a
// block handle that names a compressed block fails it with ErrUnsupported.
// The index is decoded once, at Open, into a packed array of 8-byte key
// abbreviations that point lookups binary-search (see Reader).
package sstable

import (
	"encoding/binary"
	"errors"
	"fmt"

	"p2kvs/internal/block"
	"p2kvs/internal/bloom"
	"p2kvs/internal/ikey"
	"p2kvs/internal/vfs"
)

// BlockSize is where every engine's writer cuts a data block: a point lookup
// that misses the block cache reads, copies and checksums one block to find
// one entry, so the block is sized for that read (eight 128-byte records)
// rather than for scans. Readers take any block size, so a table cut at
// another size (4 KiB, earlier) opens and reads unchanged.
const BlockSize = 1 << 10

const (
	footerLen  = 56
	tableMagic = 0x70324b5653535432 // "p2KVSST2"
)

// Meta summarizes a finished table for the version set.
type Meta struct {
	FileNum  uint64
	Size     int64
	Smallest []byte // internal keys
	Largest  []byte
	Entries  int
}

// Writer streams a table to a file. Add must be called in strictly
// ascending internal-key order.
type Writer struct {
	f         vfs.File
	blockSize int
	off       int64
	data      block.Builder
	index     block.Builder
	filter    *bloom.Filter
	hashes    []uint32 // bloom.Hash of every entry's user key, in Add order
	meta      Meta
	lastKey   []byte
	err       error
}

// NewWriter begins a table in f whose data blocks are cut once they reach
// blockSize bytes (BlockSize for every engine).
func NewWriter(f vfs.File, fileNum uint64, blockSize int) *Writer {
	return &Writer{f: f, blockSize: blockSize, filter: bloom.New(10), meta: Meta{FileNum: fileNum}}
}

// Add appends an internal-key/value entry.
func (w *Writer) Add(ik, value []byte) error {
	if w.err != nil {
		return w.err
	}
	if w.lastKey != nil && ikey.Compare(ik, w.lastKey) <= 0 {
		w.err = fmt.Errorf("sstable: keys out of order (%q after %q)", ik, w.lastKey)
		return w.err
	}
	if w.meta.Smallest == nil {
		w.meta.Smallest = append([]byte(nil), ik...)
	}
	w.lastKey = append(w.lastKey[:0], ik...)
	w.hashes = append(w.hashes, bloom.Hash(ikey.UserKey(ik)))
	w.data.Add(ik, value)
	w.meta.Entries++
	if w.data.EstimatedSize() >= w.blockSize {
		w.flushDataBlock()
	}
	return w.err
}

func (w *Writer) flushDataBlock() {
	if w.data.Empty() {
		return
	}
	blk := block.Seal(w.data.Finish())
	off := w.off
	if err := w.writeRaw(blk); err != nil {
		return
	}
	// Index entry: last key of the block -> (offset, storedSize, 0).
	// storedSize includes the checksum trailer; the third field is the
	// format's raw-length slot, zero for a block stored as built — the
	// only kind there is (see parseHandle).
	var handle [2*binary.MaxVarintLen64 + 1]byte
	n := binary.PutUvarint(handle[:], uint64(off))
	n += binary.PutUvarint(handle[n:], uint64(len(blk)))
	handle[n] = 0
	w.index.Add(w.lastKey, handle[:n+1])
	w.data.Reset()
}

func (w *Writer) writeRaw(p []byte) error {
	if w.err != nil {
		return w.err
	}
	if _, err := w.f.Write(p); err != nil {
		w.err = err
		return err
	}
	w.off += int64(len(p))
	return nil
}

// Finish flushes remaining blocks, writes filter/index/footer and syncs.
// It returns the table's metadata.
func (w *Writer) Finish() (Meta, error) {
	if w.err != nil {
		return Meta{}, w.err
	}
	if w.meta.Entries == 0 {
		w.err = errors.New("sstable: empty table")
		return Meta{}, w.err
	}
	w.flushDataBlock()
	w.meta.Largest = append([]byte(nil), w.lastKey...)

	filterOff := w.off
	filterBlk := block.Seal(w.filter.Build(w.hashes))
	if err := w.writeRaw(filterBlk); err != nil {
		return Meta{}, err
	}

	indexOff := w.off
	indexBlk := block.Seal(w.index.Finish())
	if err := w.writeRaw(indexBlk); err != nil {
		return Meta{}, err
	}

	var footer [footerLen]byte
	binary.LittleEndian.PutUint64(footer[0:], uint64(filterOff))
	binary.LittleEndian.PutUint64(footer[8:], uint64(len(filterBlk)))
	binary.LittleEndian.PutUint64(footer[16:], uint64(indexOff))
	binary.LittleEndian.PutUint64(footer[24:], uint64(len(indexBlk)))
	binary.LittleEndian.PutUint64(footer[32:], uint64(w.meta.Entries))
	binary.LittleEndian.PutUint32(footer[40:], block.Checksum(footer[:40]))
	binary.LittleEndian.PutUint64(footer[48:], tableMagic)
	if err := w.writeRaw(footer[:]); err != nil {
		return Meta{}, err
	}
	if err := w.f.Sync(); err != nil {
		w.err = err
		return Meta{}, err
	}
	w.meta.Size = w.off
	return w.meta, nil
}
