package sstable

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"p2kvs/internal/block"
	"p2kvs/internal/bloom"
	"p2kvs/internal/cache"
	"p2kvs/internal/ikey"
	"p2kvs/internal/kv"
	"p2kvs/internal/vfs"
)

// ErrCorrupt reports a malformed table.
var ErrCorrupt = errors.New("sstable: corrupt")

// ErrUnsupported reports a well-formed table this reader cannot serve: a
// block handle whose raw-length field is set names a DEFLATE-compressed
// block, which only builds before PR 20 could write (behind an option no
// binary set).
var ErrUnsupported = errors.New("sstable: unsupported format")

// corruptf builds a corruption error for one failed check. When the reader
// has a name, the error is a kv.CorruptionError (matching both
// kv.ErrCorruption and, via the %w chain below, nothing else); anonymous
// readers fall back to the package sentinel so old call sites keep
// matching ErrCorrupt.
func corruptf(name string, off int64, format string, args ...any) error {
	detail := fmt.Sprintf(format, args...)
	if name != "" {
		return &kv.CorruptionError{File: name, Offset: off, Detail: "sstable: " + detail}
	}
	return fmt.Errorf("%w: %s", ErrCorrupt, detail)
}

// Reader serves lookups and scans from one table. The index and filter
// blocks are pinned in memory (they are what RocksDB keeps in its table
// cache); data blocks are read on demand, charging the simulated device
// one random read per block. Every block's CRC-32C is verified on load.
type Reader struct {
	f       vfs.File
	name    string // for corruption reports; may be empty
	size    int64
	index   []byte
	filter  []byte
	entries int
	cache   *cache.Cache // optional shared block cache
	cacheID uint64
}

// Open reads the footer, index and filter of a table file.
func Open(f vfs.File) (*Reader, error) { return OpenNamed(f, nil, 0, "") }

// OpenNamed opens the table with an optional shared block cache — cacheID
// must be unique per file among the cache's resident blocks (the engine uses
// the file number and evicts it with the reader) — recording name as the
// file's identity in corruption reports: checksum failures surface as
// kv.CorruptionError naming it. An empty name keeps the anonymous ErrCorrupt
// errors.
func OpenNamed(f vfs.File, c *cache.Cache, cacheID uint64, name string) (*Reader, error) {
	size, err := f.Size()
	if err != nil {
		return nil, err
	}
	if size < footerLen {
		return nil, corruptf(name, -1, "file too small for a footer (%d bytes)", size)
	}
	r := &Reader{f: f, name: name, size: size, cache: c, cacheID: cacheID}
	var footer [footerLen]byte
	if _, err := f.ReadAt(footer[:], size-footerLen); err != nil {
		return nil, err
	}
	if binary.LittleEndian.Uint64(footer[48:]) != tableMagic {
		return nil, corruptf(name, size-8, "bad magic")
	}
	if got, want := block.Checksum(footer[:40]), binary.LittleEndian.Uint32(footer[40:]); got != want {
		return nil, corruptf(name, size-footerLen, "footer crc mismatch (stored %08x, content %08x)", want, got)
	}
	filterOff := int64(binary.LittleEndian.Uint64(footer[0:]))
	filterLen := int64(binary.LittleEndian.Uint64(footer[8:]))
	indexOff := int64(binary.LittleEndian.Uint64(footer[16:]))
	indexLen := int64(binary.LittleEndian.Uint64(footer[24:]))
	r.entries = int(binary.LittleEndian.Uint64(footer[32:]))
	if filterOff < 0 || filterLen < 0 || indexOff < 0 || indexLen < 0 ||
		filterOff+filterLen > size || indexOff+indexLen > size {
		return nil, corruptf(name, -1, "bad block handles")
	}
	r.filter = make([]byte, filterLen)
	if _, err := f.ReadAt(r.filter, filterOff); err != nil {
		return nil, err
	}
	r.index = make([]byte, indexLen)
	if _, err := f.ReadAt(r.index, indexOff); err != nil {
		return nil, err
	}
	if r.filter, err = block.Unseal(r.filter); err != nil {
		return nil, corruptf(name, filterOff, "filter block crc mismatch")
	}
	if r.index, err = block.Unseal(r.index); err != nil {
		return nil, corruptf(name, indexOff, "index block crc mismatch")
	}
	return r, nil
}

// Entries reports the number of entries in the table.
func (r *Reader) Entries() int { return r.entries }

// Size reports the table file size.
func (r *Reader) Size() int64 { return r.size }

// Name reports the identity OpenNamed recorded, "" for anonymous readers.
func (r *Reader) Name() string { return r.name }

// Close releases the underlying file.
func (r *Reader) Close() error { return r.f.Close() }

// MayContain consults the bloom filter for a user key.
func (r *Reader) MayContain(ukey []byte) bool {
	return bloom.MayContain(r.filter, ukey)
}

// parseHandle decodes an index entry's (offset, stored length) pair. The
// optional third field is the raw length of a compressed block: absent or
// zero means stored as built, anything else is a block this reader has no
// decompressor for.
func (r *Reader) parseHandle(handle []byte) (off, length uint64, err error) {
	off, n := binary.Uvarint(handle)
	if n <= 0 {
		return 0, 0, corruptf(r.name, -1, "bad block handle")
	}
	handle = handle[n:]
	length, n = binary.Uvarint(handle)
	if n <= 0 || int64(off)+int64(length) > r.size {
		return 0, 0, corruptf(r.name, -1, "bad block handle")
	}
	if handle = handle[n:]; len(handle) > 0 {
		rawLen, n := binary.Uvarint(handle)
		if n <= 0 {
			return 0, 0, corruptf(r.name, -1, "bad block handle")
		}
		if rawLen != 0 {
			return 0, 0, fmt.Errorf("%w: block at offset %d of %q is compressed", ErrUnsupported, off, r.name)
		}
	}
	return off, length, nil
}

// loadBlock reads the sealed data block at off into buf and verifies its
// seal, returning the content: buf without the trailer.
func (r *Reader) loadBlock(buf []byte, off uint64) ([]byte, error) {
	if _, err := r.f.ReadAt(buf, int64(off)); err != nil {
		return nil, err
	}
	content, err := block.Unseal(buf)
	if err != nil {
		return nil, corruptf(r.name, int64(off), "data block crc mismatch (%d bytes)", len(buf))
	}
	return content, nil
}

// Verify reads every block of the table back through its checksums: the
// footer (verified at Open), the pinned filter and index, and each data
// block named by the index — bypassing the block cache, so the bytes come
// from the device. It returns the number of bytes read and the first
// corruption found.
func (r *Reader) Verify() (int64, error) {
	var idx block.Iter
	err := idx.Init(r.index)
	if err != nil {
		return 0, corruptf(r.name, -1, "index block: %v", err)
	}
	read := int64(len(r.filter) + len(r.index))
	var buf []byte // one buffer for the whole table, grown to its largest block
	for idx.SeekToFirst(); idx.Valid(); idx.Next() {
		off, length, err := r.parseHandle(idx.Value())
		if err != nil {
			return read, err
		}
		buf = slices.Grow(buf[:0], int(length))[:length]
		_, err = r.loadBlock(buf, off)
		read += int64(length)
		if err != nil {
			return read, err
		}
	}
	if idx.Err() != nil {
		return read, corruptf(r.name, -1, "index block: %v", idx.Err())
	}
	return read, nil
}

// VerifyImage checks candidate bytes for table file name end to end —
// footer, filter, index and every data block through their checksums —
// before a repair installs them: trusting a backup blindly would just
// relocate the corruption.
func VerifyImage(name string, data []byte) error {
	mem := vfs.NewMem()
	if err := vfs.WriteFile(mem, name, data); err != nil {
		return err
	}
	f, err := mem.Open(name)
	if err != nil {
		return err
	}
	r, err := OpenNamed(f, nil, 0, name)
	if err != nil {
		f.Close()
		return err
	}
	defer r.Close()
	_, err = r.Verify()
	return err
}

// seekKeyBuf sizes the stack buffer Get encodes its seek key into; a longer
// user key falls back to one allocation.
const seekKeyBuf = 64 + ikey.TrailerLen

// Hit accumulates the newest version of a key across the tables probed so
// far (L0, fragmented levels). Val is the caller's: Find copies into it.
type Hit struct {
	Val            []byte
	Seq            uint64
	Found, Deleted bool
}

// Find looks up the newest version of ukey visible at snapshot seq and keeps
// it in best when it is newer than what best holds, copying the value into
// best.Val — once, and only for a version that wins.
//
// Find searches the pinned index block and one data block in place; the pin
// on the data block is dropped before it returns, so nothing it hands back
// points into the block cache. It does not consult the bloom filter; a caller
// that wants the filter's shortcut asks MayContain first.
func (r *Reader) Find(ukey []byte, seq uint64, best *Hit) error {
	var (
		it  Iter // never escapes: the two block cursors live on this stack
		buf [seekKeyBuf]byte
	)
	it.init(r)
	defer it.Close()
	it.Seek(ikey.Encode(buf[:0], ukey, seq, ikey.KindSet))
	if it.err != nil || !it.Valid() {
		return it.err
	}
	gotUkey, gotSeq, kind, err := ikey.Decode(it.Key())
	if err != nil {
		return err
	}
	if !bytes.Equal(gotUkey, ukey) || (best.Found && gotSeq <= best.Seq) {
		return nil
	}
	best.Seq, best.Found, best.Deleted = gotSeq, true, kind == ikey.KindDelete
	best.Val = best.Val[:0]
	if !best.Deleted {
		best.Val = append(best.Val, it.Value()...)
	}
	return nil
}

// Get is Find for a single table: the newest version of ukey visible at
// snapshot seq, its sequence number, whether one was found and whether it is
// a tombstone. The value is a fresh copy.
func (r *Reader) Get(ukey []byte, seq uint64) (value []byte, foundSeq uint64, found, deleted bool, err error) {
	var h Hit
	err = r.Find(ukey, seq, &h)
	return h.Val, h.Seq, h.Found, h.Deleted, err
}

// Iter is a two-level iterator over the table's internal keys. The index
// and data cursors are part of the Iter itself and the data cursor is
// re-pointed at each block in turn. The current data block is pinned in the
// block cache — or, on a reader without one, read into a buffer the Iter owns
// and reuses block after block — so walking a table allocates nothing per
// block. Key is the Iter's own copy; Value points into the current block and
// is valid until the next positioning call or Close.
type Iter struct {
	r      *Reader
	index  block.Iter
	data   block.Iter
	pin    *cache.Block // the current data block of a cached reader
	own    []byte       // the block buffer of an uncached reader
	loaded bool         // data is positioned inside the block index points at
	err    error
}

// NewIterator returns an iterator over the table. The caller must Close it.
func (r *Reader) NewIterator() *Iter {
	it := new(Iter)
	it.init(r)
	return it
}

func (it *Iter) init(r *Reader) {
	it.r = r
	it.err = it.index.Init(r.index)
}

// Close drops the pin on the current data block. The Iter is unpositioned
// afterwards and may be positioned again.
func (it *Iter) Close() {
	it.loaded = false
	if it.pin != nil {
		it.pin.Release()
		it.pin = nil
	}
}

func (it *Iter) loadDataBlock() bool {
	it.Close()
	if it.err != nil || !it.index.Valid() {
		return false
	}
	blk, err := it.readBlock()
	if err == nil {
		err = it.data.Init(blk)
	}
	if err != nil {
		it.err = err
		it.Close()
		return false
	}
	it.loaded = true
	return true
}

// readBlock returns the content of the data block the index points at:
// pinned in the block cache, where a miss reads it into a buffer the cache
// recycles, or read into the buffer the Iter owns. On error a pin it took is
// left for the caller's Close.
func (it *Iter) readBlock() ([]byte, error) {
	r := it.r
	off, length, err := r.parseHandle(it.index.Value())
	if err != nil {
		return nil, err
	}
	if r.cache == nil {
		it.own = slices.Grow(it.own[:0], int(length))[:length]
		return r.loadBlock(it.own, off)
	}
	var hit bool
	if it.pin, hit = r.cache.Get(r.cacheID, off, int(length)); !hit {
		content, err := r.loadBlock(it.pin.Data(), off)
		if err != nil {
			return nil, err
		}
		it.pin = r.cache.Insert(it.pin, len(content))
	}
	return it.pin.Data(), nil
}

// SeekToFirst implements iteration start.
func (it *Iter) SeekToFirst() {
	if it.err != nil {
		return
	}
	it.index.SeekToFirst()
	if it.loadDataBlock() {
		it.data.SeekToFirst()
	}
}

// Seek positions at the first internal key >= target.
func (it *Iter) Seek(target []byte) {
	if it.err != nil {
		return
	}
	// Index keys are the last internal key of each block, so the first
	// index entry >= target names the block that may contain it.
	it.index.SeekInternal(target)
	if !it.loadDataBlock() {
		return
	}
	it.data.SeekInternal(target)
	it.skipForwardIfExhausted()
}

// Next advances the iterator.
func (it *Iter) Next() {
	if !it.loaded {
		return
	}
	it.data.Next()
	it.skipForwardIfExhausted()
}

func (it *Iter) skipForwardIfExhausted() {
	for it.loaded && !it.data.Valid() {
		if it.data.Err() != nil {
			it.err = it.data.Err()
			it.loaded = false
			return
		}
		it.index.Next()
		if !it.loadDataBlock() {
			return
		}
		it.data.SeekToFirst()
	}
}

// Valid reports whether the iterator is positioned at an entry.
func (it *Iter) Valid() bool { return it.err == nil && it.loaded && it.data.Valid() }

// Key returns the current internal key, held in the Iter's own array.
func (it *Iter) Key() []byte { return it.data.Key() }

// Value returns the current value, a slice of the current data block: copy
// it before the next positioning call or Close.
func (it *Iter) Value() []byte { return it.data.Value() }

// Err returns the first error encountered.
func (it *Iter) Err() error { return it.err }
