package lsm

import (
	"strings"
	"sync/atomic"
	"testing"

	"p2kvs/internal/kv"
	"p2kvs/internal/vfs"
)

// openCounter counts the table files opened through it.
type openCounter struct {
	vfs.FS
	tables atomic.Int64
}

func (c *openCounter) Open(name string) (vfs.File, error) {
	if strings.HasSuffix(name, ".sst") {
		c.tables.Add(1)
	}
	return c.FS.Open(name)
}

// TestScanTakesCachedReaders: a scan walks the readers the table cache holds,
// so once a table is open a scan neither re-opens its file nor re-reads and
// re-decodes its index and filter.
func TestScanTakesCachedReaders(t *testing.T) {
	fs := &openCounter{FS: vfs.NewMem()}
	db, err := Open("db", RocksDBOptions(fs))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	val := make([]byte, 128)
	for i := 0; i < 20000; i++ {
		if err := db.Put(lookupKey(i), val); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.CompactAll(); err != nil {
		t.Fatal(err)
	}
	scan := func() {
		t.Helper()
		it, err := db.NewIterator()
		if err != nil {
			t.Fatal(err)
		}
		defer it.Close()
		it.Seek(lookupKey(7000))
		for i := 7000; i < 7010; i++ {
			if !it.Valid() || string(it.Key()) != string(lookupKey(i)) {
				t.Fatalf("scan at %d: valid %v, key %q, err %v", i, it.Valid(), it.Key(), it.Error())
			}
			it.Next()
		}
	}
	scan()
	opened := fs.tables.Load()
	if opened == 0 {
		t.Fatal("setup: the first scan opened no table")
	}
	for i := 0; i < 3; i++ {
		scan()
	}
	if n := fs.tables.Load() - opened; n != 0 {
		t.Fatalf("three more scans opened %d table files", n)
	}
}

// TestScanOutlivesCompaction: a scan keeps reading the tables it started on
// after a compaction has evicted them from the table cache and deleted their
// files. On the host filesystem a closed handle fails its reads, so this
// fails if an eviction closed a reader a scan still holds.
func TestScanOutlivesCompaction(t *testing.T) {
	opts := RocksDBOptions(vfs.OSFS{})
	opts.BlockCacheSize = 64 << 10 // the scan's later blocks come from the files
	db, err := Open(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	const n = 20000
	write := func(val []byte) {
		t.Helper()
		var b kv.Batch
		for i := 0; i < n; i++ {
			b.Put(lookupKey(i), val)
			if b.Len() == 256 || i == n-1 {
				if err := db.Write(&b); err != nil {
					t.Fatal(err)
				}
				b = kv.Batch{}
			}
		}
	}
	write([]byte("old"))
	if err := db.CompactRange(nil, nil); err != nil {
		t.Fatal(err)
	}
	it, err := db.NewIterator()
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	it.SeekToFirst()
	write([]byte("new")) // every file is rewritten: the scan's tables go
	if err := db.CompactRange(nil, nil); err != nil {
		t.Fatal(err)
	}
	i := 0
	for ; it.Valid(); it.Next() {
		if string(it.Key()) != string(lookupKey(i)) || string(it.Value()) != "old" {
			t.Fatalf("entry %d: %q = %q, want %q = old", i, it.Key(), it.Value(), lookupKey(i))
		}
		i++
	}
	if err := it.Error(); err != nil || i != n {
		t.Fatalf("scan ended after %d of %d entries: %v", i, n, err)
	}
}

// BenchmarkShortScan is the inner loop of a short SCAN on one engine: open an
// iterator over settled data, seek a uniform key, read ten entries.
//
//	go test -run '^$' -bench 'BenchmarkShortScan' -benchmem ./internal/lsm
func BenchmarkShortScan(b *testing.B) {
	const n = 200000
	db := settledDB(b, n, 64<<20)
	x := uint64(88172645463325252)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		it, err := db.NewIterator()
		if err != nil {
			b.Fatal(err)
		}
		it.Seek(lookupKey(int(x % (n - 10))))
		for j := 0; j < 10 && it.Valid(); j++ {
			benchSink = it.Value()
			it.Next()
		}
		if err := it.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompactionMerge is compaction's inner loop: CompactRange over
// eight overlapping L0 tables on MemFS, each of 10,000 128-byte records
// drawn from 60,000 keys (so about a third of the versions are shadowed),
// rebuilt outside the timer before every iteration.
//
//	go test -run '^$' -bench 'BenchmarkCompactionMerge' -benchmem ./internal/lsm
func BenchmarkCompactionMerge(b *testing.B) {
	const tables, perTable, keySpace = 8, 10000, 60000
	val := make([]byte, 128)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		db, err := Open("db", manualOpts(RocksDBOptions(vfs.NewMem())))
		if err != nil {
			b.Fatal(err)
		}
		x := uint64(88172645463325252)
		for t := 0; t < tables; t++ {
			var batch kv.Batch
			for j := 0; j < perTable; j++ {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
				batch.Put(lookupKey(int(x%keySpace)), val)
				if batch.Len() == 256 || j == perTable-1 {
					if err := db.Write(&batch); err != nil {
						b.Fatal(err)
					}
					batch = kv.Batch{}
				}
			}
			if err := db.Flush(); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		if err := db.CompactRange(nil, nil); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if err := db.Close(); err != nil {
			b.Fatal(err)
		}
	}
}
