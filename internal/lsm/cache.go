package lsm

import (
	"fmt"
	"maps"
	"sync"
	"sync/atomic"

	"p2kvs/internal/cache"
	"p2kvs/internal/sstable"
	"p2kvs/internal/vfs"
)

// tableCache keeps SSTable readers open so point lookups and scans don't
// re-read and re-decode index and filter blocks on every probe (RocksDB's
// table cache). Entries are evicted when compaction deletes their files.
//
// A lookup of an open table takes no lock: the reader map is immutable and
// replaced wholesale (copy-on-write under mu) by the rare open or evict — a
// table is opened once and probed millions of times.
type tableCache struct {
	fs     vfs.FS
	dir    string
	blocks *cache.Cache // shared data-block cache (nil = disabled)

	mu      sync.Mutex // serializes replacements of readers
	readers atomic.Pointer[map[uint64]*tableRef]
}

// tableRef is a cached reader and its references: one held by the cache
// while the table is in it, one by each scan or scrub reading it. The
// reader is closed when the last is dropped, so evicting a table a scan
// still walks leaves the scan's file handle open. A point lookup takes no
// reference.
type tableRef struct {
	*sstable.Reader
	refs atomic.Int32
}

// Close drops a reference, closing the reader with the last.
func (t *tableRef) Close() error {
	if t.refs.Add(-1) == 0 {
		return t.Reader.Close()
	}
	return nil
}

func newTableCache(fs vfs.FS, dir string, blocks *cache.Cache) *tableCache {
	c := &tableCache{fs: fs, dir: dir, blocks: blocks}
	c.readers.Store(&map[uint64]*tableRef{})
	return c
}

// replaceLocked publishes a copy of the reader map with num mapped to r, or
// removed when r is nil. Caller holds c.mu.
func (c *tableCache) replaceLocked(num uint64, r *tableRef) {
	next := maps.Clone(*c.readers.Load())
	if r != nil {
		next[num] = r
	} else {
		delete(next, num)
	}
	c.readers.Store(&next)
}

// openTable opens table num for the point-lookup path, a scan or a
// compaction alike. The base name in its corruption errors is what maps a
// checksum mismatch back to the file number to quarantine (corruption.go).
func openTable(fs vfs.FS, dir string, num uint64, blocks *cache.Cache) (*sstable.Reader, error) {
	f, err := fs.Open(sstName(dir, num))
	if err != nil {
		return nil, err
	}
	r, err := sstable.OpenNamed(f, blocks, num, fmt.Sprintf("%06d.sst", num))
	if err != nil {
		f.Close()
	}
	return r, err
}

// get returns the cached reader of table num, opening it on a miss.
func (c *tableCache) get(num uint64) (*tableRef, error) {
	if r := c.peek(num); r != nil {
		return r, nil
	}

	r, err := openTable(c.fs, c.dir, num, c.blocks)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if existing, ok := (*c.readers.Load())[num]; ok {
		// Lost a racing open; keep the first.
		r.Close()
		return existing, nil
	}
	t := &tableRef{Reader: r}
	t.refs.Store(1)
	c.replaceLocked(num, t)
	return t, nil
}

// peek is get for a lookup that may not read the device: the open reader of
// table num, or nil when reaching it would open the file.
func (c *tableCache) peek(num uint64) *tableRef {
	return (*c.readers.Load())[num]
}

// acquire is get for a reader held across many reads, a scan's or a
// scrub's: the caller owns a reference and Closes it when done.
func (c *tableCache) acquire(num uint64) (*tableRef, error) {
	for {
		t, err := c.get(num)
		if err != nil {
			return nil, err
		}
		// Only a reader still in the map holds the cache's reference; one
		// evicted since get loaded it is retried, and the next get opens the
		// file afresh (or finds it gone).
		c.mu.Lock()
		cached := (*c.readers.Load())[num] == t
		if cached {
			t.refs.Add(1)
		}
		c.mu.Unlock()
		if cached {
			return t, nil
		}
	}
}

// evict forgets the reader for a deleted, parked or re-installed file,
// dropping the cache's reference (the reader closes once no scan holds it),
// and drops the file's blocks from the block cache: they would hold
// budget until they aged out, and a repaired image under the same number must
// not be served the old one's bytes.
func (c *tableCache) evict(num uint64) {
	c.mu.Lock()
	r, ok := (*c.readers.Load())[num]
	if ok {
		c.replaceLocked(num, nil)
	}
	c.mu.Unlock()
	if ok {
		r.Close()
	}
	c.blocks.EvictFile(num)
}

func (c *tableCache) closeAll() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, r := range *c.readers.Load() {
		r.Close()
	}
	c.readers.Store(&map[uint64]*tableRef{})
}
