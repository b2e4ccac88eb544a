package sstable

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"

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
// binary set). OpenNamed refuses such a table.
var ErrUnsupported = errors.New("sstable: unsupported format")

// ErrWouldRead is FindCached's answer when the lookup needs a data block
// that is not resident in the block cache: finding the key would read the
// device.
var ErrWouldRead = errors.New("sstable: lookup would read the device")

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

// Reader serves lookups and scans from one table. The filter block stays in
// memory as read (it is what RocksDB keeps in its table cache beside the
// index); the index block is decoded once, at Open, into flat arrays that a
// lookup binary-searches without parsing a byte (see decodeIndex); data
// blocks are read on demand, charging the simulated device one random read
// per block. Every block's CRC-32C is verified on load.
type Reader struct {
	f       vfs.File
	name    string // for corruption reports; may be empty
	size    int64
	filter  []byte
	entries int
	cache   *cache.Cache // optional shared block cache
	cacheID uint64

	// The index: data block i ends at separator i, the internal key
	// keys[handles[i-1].keyEnd:handles[i].keyEnd]. prefix is the user-key
	// prefix every separator shares, and abbrev[i] the next 8 bytes of
	// separator i's user key after it, big-endian and zero-padded: 8 bytes a
	// block, searched without touching keys except across equal abbreviations.
	prefix  []byte
	abbrev  []uint64
	keys    []byte
	handles []blockHandle
}

// blockHandle locates a data block in the file and its separator in
// Reader.keys: 16 bytes, a quarter of a cache line.
type blockHandle struct {
	off            uint64
	length, keyEnd uint32
}

// footer locates a table's filter and index blocks.
type footer struct {
	filterOff, filterLen, indexOff, indexLen int64
	entries                                  int
}

// readFooter reads the footer of the table f, size bytes long, into b (of
// footerLen bytes) and checks its magic, checksum and block bounds.
func readFooter(f vfs.File, size int64, name string, b []byte) (footer, error) {
	if size < footerLen {
		return footer{}, corruptf(name, -1, "file too small for a footer (%d bytes)", size)
	}
	if _, err := f.ReadAt(b, size-footerLen); err != nil {
		return footer{}, err
	}
	if binary.LittleEndian.Uint64(b[48:]) != tableMagic {
		return footer{}, corruptf(name, size-8, "bad magic")
	}
	if got, want := block.Checksum(b[:40]), binary.LittleEndian.Uint32(b[40:]); got != want {
		return footer{}, corruptf(name, size-footerLen, "footer crc mismatch (stored %08x, content %08x)", want, got)
	}
	ft := footer{
		filterOff: int64(binary.LittleEndian.Uint64(b[0:])),
		filterLen: int64(binary.LittleEndian.Uint64(b[8:])),
		indexOff:  int64(binary.LittleEndian.Uint64(b[16:])),
		indexLen:  int64(binary.LittleEndian.Uint64(b[24:])),
		entries:   int(binary.LittleEndian.Uint64(b[32:])),
	}
	if ft.filterOff < 0 || ft.filterLen < 0 || ft.indexOff < 0 || ft.indexLen < 0 ||
		ft.filterOff > size-ft.filterLen || ft.indexOff > size-ft.indexLen {
		return footer{}, corruptf(name, -1, "bad block handles")
	}
	return ft, nil
}

// Open reads the footer, index and filter of a table file.
func Open(f vfs.File) (*Reader, error) { return OpenNamed(f, nil, 0, "") }

// OpenNamed opens the table with an optional shared block cache — cacheID
// must be unique per file among the cache's resident blocks (the engine uses
// the file number and evicts it with the reader) — recording name as the
// file's identity in corruption reports: checksum failures surface as
// kv.CorruptionError naming it. An empty name keeps the anonymous ErrCorrupt
// errors. It reads the filter and the index through their checksums and
// decodes the index, so a malformed index entry fails here, and a handle
// naming a compressed block fails with ErrUnsupported.
func OpenNamed(f vfs.File, c *cache.Cache, cacheID uint64, name string) (*Reader, error) {
	size, err := f.Size()
	if err != nil {
		return nil, err
	}
	r := &Reader{f: f, name: name, size: size, cache: c, cacheID: cacheID}
	var b [footerLen]byte
	ft, err := readFooter(f, size, name, b[:])
	if err != nil {
		return nil, err
	}
	r.entries = ft.entries
	if r.filter, err = r.loadBlock(make([]byte, ft.filterLen), uint64(ft.filterOff), "filter"); err != nil {
		return nil, err
	}
	buf := indexBufs.Get().(*[]byte)
	defer indexBufs.Put(buf)
	*buf = slices.Grow((*buf)[:0], int(ft.indexLen))[:ft.indexLen]
	index, err := r.loadBlock(*buf, uint64(ft.indexOff), "index")
	if err != nil {
		return nil, err
	}
	if err := r.decodeIndex(index, ft.indexOff); err != nil {
		return nil, err
	}
	return r, nil
}

// indexBufs recycles the buffers Open reads index blocks into: decodeIndex
// copies out everything it keeps, so the block is garbage once decoded.
var indexBufs = sync.Pool{New: func() any { return new([]byte) }}

// decodeIndex parses the index block into r's arrays. It counts the entries
// and their key bytes first, so each array is one allocation whatever the
// table's size, and it rejects what a lookup would otherwise trip over: a
// malformed or out-of-file handle, one naming a compressed block
// (ErrUnsupported), a key shorter than a trailer, keys out of order.
func (r *Reader) decodeIndex(index []byte, off int64) error {
	var it block.Iter
	if err := it.Init(index); err != nil {
		return corruptf(r.name, off, "index block: %v", err)
	}
	n, keyBytes := 0, 0
	for it.SeekToFirst(); it.Valid(); it.Next() {
		n++
		keyBytes += len(it.Key())
	}
	if it.Err() != nil {
		return corruptf(r.name, off, "index block: %v", it.Err())
	}
	if keyBytes > math.MaxUint32 {
		return corruptf(r.name, off, "index keys of %d bytes", keyBytes)
	}
	r.keys = make([]byte, 0, keyBytes)
	r.handles = make([]blockHandle, 0, n)
	for it.SeekToFirst(); it.Valid(); it.Next() {
		key, i := it.Key(), len(r.handles)
		if len(key) < ikey.TrailerLen {
			return corruptf(r.name, off, "index key %d shorter than a trailer", i)
		}
		if i > 0 && ikey.Compare(r.key(i-1), key) >= 0 {
			return corruptf(r.name, off, "index key %d out of order", i)
		}
		h, err := r.parseHandle(it.Value())
		if err != nil {
			return err
		}
		r.keys = append(r.keys, key...)
		h.keyEnd = uint32(len(r.keys))
		r.handles = append(r.handles, h)
	}
	if n == 0 {
		return nil
	}
	// Sorted keys share what the first and the last share.
	first, last := ikey.UserKey(r.key(0)), ikey.UserKey(r.key(n-1))
	p := 0
	for p < len(first) && p < len(last) && first[p] == last[p] {
		p++
	}
	r.prefix = first[:p:p]
	r.abbrev = make([]uint64, n)
	for i := range r.abbrev {
		r.abbrev[i] = abbreviate(ikey.UserKey(r.key(i)), p)
	}
	return nil
}

// key returns separator i.
func (r *Reader) key(i int) []byte {
	start := uint32(0)
	if i > 0 {
		start = r.handles[i-1].keyEnd
	}
	return r.keys[start:r.handles[i].keyEnd]
}

// abbreviate returns the 8 bytes of ukey after its first p, as a big-endian
// word, zero-padded: words order as the user keys do wherever they differ,
// and a tie (a shorter suffix against itself zero-extended included) is
// left to ikey.Compare.
func abbreviate(ukey []byte, p int) uint64 {
	rest := ukey[p:]
	if len(rest) >= 8 {
		return binary.BigEndian.Uint64(rest)
	}
	var pad [8]byte
	copy(pad[:], rest)
	return binary.BigEndian.Uint64(pad[:])
}

// search returns the first index entry whose separator is >= target, an
// internal key: the only block that may hold target. len(r.handles) means
// target sorts after the table's last key.
func (r *Reader) search(target []byte) int {
	ukey := ikey.UserKey(target)
	if !bytes.HasPrefix(ukey, r.prefix) {
		// Outside the prefix: below every separator or above all of them.
		if bytes.Compare(ukey, r.prefix) < 0 {
			return 0
		}
		return len(r.handles)
	}
	a := abbreviate(ukey, len(r.prefix))
	lo, hi := 0, len(r.abbrev)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		var before bool
		if x := r.abbrev[mid]; x != a {
			before = x < a
		} else {
			before = ikey.Compare(r.key(mid), target) < 0
		}
		if before {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
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

// parseHandle decodes an index entry's (offset, stored length) pair and
// checks that the block lies inside the file. The optional third field is
// the raw length of a compressed block: absent or zero means stored as
// built, anything else is a block this reader has no decompressor for.
func (r *Reader) parseHandle(handle []byte) (blockHandle, error) {
	off, n := binary.Uvarint(handle)
	if n <= 0 {
		return blockHandle{}, corruptf(r.name, -1, "bad block handle")
	}
	handle = handle[n:]
	length, n := binary.Uvarint(handle)
	if n <= 0 || off > uint64(r.size) || length > min(uint64(r.size)-off, math.MaxUint32) {
		return blockHandle{}, corruptf(r.name, -1, "bad block handle")
	}
	if handle = handle[n:]; len(handle) > 0 {
		rawLen, n := binary.Uvarint(handle)
		if n <= 0 {
			return blockHandle{}, corruptf(r.name, -1, "bad block handle")
		}
		if rawLen != 0 {
			return blockHandle{}, fmt.Errorf("%w: block at offset %d of %q is compressed", ErrUnsupported, off, r.name)
		}
	}
	return blockHandle{off: off, length: uint32(length)}, nil
}

// loadBlock reads the sealed block (what: data, filter or index) at off into
// buf and verifies its seal, returning the content: buf without the trailer.
func (r *Reader) loadBlock(buf []byte, off uint64, what string) ([]byte, error) {
	if _, err := r.f.ReadAt(buf, int64(off)); err != nil {
		return nil, err
	}
	content, err := block.Unseal(buf)
	if err != nil {
		return nil, corruptf(r.name, int64(off), "%s block crc mismatch (%d bytes)", what, len(buf))
	}
	return content, nil
}

// Verify reads the whole table back from the device through its checksums —
// the footer, the filter and index blocks (though Open keeps decoded copies,
// so rot that landed after Open is found), and each data block the index
// names — bypassing the block cache. It returns the number of bytes read, the
// file's size for a whole table, and the first corruption found.
func (r *Reader) Verify() (int64, error) {
	buf := make([]byte, footerLen) // one buffer for the whole table, grown to its largest block
	ft, err := readFooter(r.f, r.size, r.name, buf)
	if err != nil {
		return 0, err
	}
	read := int64(footerLen)
	check := func(off, length uint64, what string) error {
		buf = slices.Grow(buf[:0], int(length))[:length]
		read += int64(length)
		_, err := r.loadBlock(buf, off, what)
		return err
	}
	if err := check(uint64(ft.filterOff), uint64(ft.filterLen), "filter"); err != nil {
		return read, err
	}
	if err := check(uint64(ft.indexOff), uint64(ft.indexLen), "index"); err != nil {
		return read, err
	}
	for _, h := range r.handles {
		if err := check(h.off, uint64(h.length), "data"); err != nil {
			return read, err
		}
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
// Find binary-searches the decoded index and reads one data block in place;
// the pin on the data block is dropped before it returns, so nothing it hands
// back points into the block cache. It does not consult the bloom filter; a
// caller that wants the filter's shortcut asks MayContain first.
func (r *Reader) Find(ukey []byte, seq uint64, best *Hit) error {
	return r.find(ukey, seq, best, false)
}

// FindCached is Find through blocks already in the block cache only: where
// Find would read a data block from the device, FindCached returns
// ErrWouldRead and leaves best as it was. A reader without a block cache
// always would.
func (r *Reader) FindCached(ukey []byte, seq uint64, best *Hit) error {
	return r.find(ukey, seq, best, true)
}

func (r *Reader) find(ukey []byte, seq uint64, best *Hit, cachedOnly bool) error {
	var (
		it  = Iter{r: r, cachedOnly: cachedOnly} // never escapes: the data cursor lives on this stack
		buf [seekKeyBuf]byte
	)
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

// Iter is a two-level iterator over the table's internal keys: a position in
// the reader's decoded index and a data cursor, part of the Iter itself,
// re-pointed at each block in turn. The current data block is pinned in the
// block cache — or, on a reader without one, read into a buffer the Iter owns
// and reuses block after block — so walking a table allocates nothing per
// block. Key is the Iter's own copy; Value points into the current block and
// is valid until the next positioning call or Close.
type Iter struct {
	r      *Reader
	pos    int // index entry of the current data block
	data   block.Iter
	pin    *cache.Block // the current data block of a cached reader
	own    []byte       // the block buffer of an uncached reader
	loaded bool         // data is positioned inside block pos
	// cachedOnly makes a block that is not resident in the block cache an
	// ErrWouldRead instead of a read (FindCached).
	cachedOnly bool
	err        error
}

// NewIterator returns an iterator over the table. The caller must Close it.
func (r *Reader) NewIterator() *Iter { return &Iter{r: r} }

// Close drops the pin on the current data block. The Iter is unpositioned
// afterwards and may be positioned again.
func (it *Iter) Close() error {
	it.release()
	return nil
}

func (it *Iter) release() {
	it.loaded = false
	if it.pin != nil {
		it.pin.Release()
		it.pin = nil
	}
}

func (it *Iter) loadDataBlock() bool {
	it.release()
	if it.err != nil || it.pos >= len(it.r.handles) {
		return false
	}
	blk, err := it.readBlock()
	if err == nil {
		err = it.data.Init(blk)
	}
	if err != nil {
		it.err = err
		it.release()
		return false
	}
	it.loaded = true
	return true
}

// readBlock returns the content of data block pos: pinned in the block
// cache, where a miss reads it into a buffer the cache recycles, or read into
// the buffer the Iter owns; a cachedOnly Iter takes a resident block or
// nothing. On error a pin it took is left for the caller's release.
func (it *Iter) readBlock() ([]byte, error) {
	r, h := it.r, it.r.handles[it.pos]
	if it.cachedOnly {
		if r.cache != nil {
			it.pin = r.cache.Lookup(r.cacheID, h.off)
		}
		if it.pin == nil {
			return nil, ErrWouldRead
		}
		return it.pin.Data(), nil
	}
	if r.cache == nil {
		it.own = slices.Grow(it.own[:0], int(h.length))[:h.length]
		return r.loadBlock(it.own, h.off, "data")
	}
	var hit bool
	if it.pin, hit = r.cache.Get(r.cacheID, h.off, int(h.length)); !hit {
		content, err := r.loadBlock(it.pin.Data(), h.off, "data")
		if err != nil {
			return nil, err
		}
		it.pin = r.cache.Insert(it.pin, len(content))
	}
	return it.pin.Data(), nil
}

// SeekToFirst implements iteration start.
func (it *Iter) SeekToFirst() {
	it.pos = 0
	if it.loadDataBlock() {
		it.data.SeekToFirst()
	}
}

// Seek positions at the first internal key >= target.
func (it *Iter) Seek(target []byte) {
	// Separators are the last internal key of each block, so the first
	// one >= target names the block that may contain it.
	it.pos = it.r.search(target)
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
		it.pos++
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

// Error returns the first error encountered.
func (it *Iter) Error() error { return it.err }
