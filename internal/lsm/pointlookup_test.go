package lsm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"p2kvs/internal/block"
	"p2kvs/internal/ikey"
	"p2kvs/internal/kv"
	"p2kvs/internal/raceflag"
	"p2kvs/internal/sstable"
	"p2kvs/internal/vfs"
)

func lookupKey(i int) []byte { return []byte(fmt.Sprintf("user%012d", i)) }

// settledDB loads n 128-byte records, flushes and compacts them into the
// levels, and leaves the memtable empty: every Get goes to the tables.
func settledDB(tb testing.TB, n int, blockCache int64) *DB {
	tb.Helper()
	return settledDBOn(tb, vfs.NewMem(), n, blockCache)
}

// settledDBOn is settledDB on fs.
func settledDBOn(tb testing.TB, fs vfs.FS, n int, blockCache int64) *DB {
	tb.Helper()
	opts := RocksDBOptions(fs)
	opts.BlockCacheSize = blockCache
	db, err := Open("db", opts)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { db.Close() })
	val := make([]byte, 128)
	var b kv.Batch
	for i := 0; i < n; i++ {
		b.Put(lookupKey(i), val)
		if b.Len() == 256 || i == n-1 {
			if err := db.Write(&b); err != nil {
				tb.Fatal(err)
			}
			b = kv.Batch{}
		}
	}
	if err := db.CompactAll(); err != nil {
		tb.Fatal(err)
	}
	return db
}

// TestGetAllocs pins the point-lookup path of the engine: the value handed
// to the caller is the only allocation of a Get served from a memtable or
// from a cached block, and a block-cache miss adds the block buffer and the
// cache entry that holds it — until the cache is evicting, when both come
// from the block it evicts.
func TestGetAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation pins are not meaningful under the race detector")
	}
	get := func(db *DB, key []byte) func() {
		return func() {
			if v, err := db.Get(key); err != nil || len(v) != 128 {
				t.Fatalf("Get(%s) = %d bytes, %v", key, len(v), err)
			}
		}
	}

	t.Run("memtable", func(t *testing.T) {
		db, err := Open("db", RocksDBOptions(vfs.NewMem()))
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		for i := 0; i < 1000; i++ {
			db.Put(lookupKey(i), make([]byte, 128))
		}
		if n := testing.AllocsPerRun(200, get(db, lookupKey(500))); n > 1 {
			t.Errorf("Get from the memtable: %.0f allocs, want <= 1", n)
		}
	})

	t.Run("cached block", func(t *testing.T) {
		db := settledDB(t, 50000, 64<<20)
		if n := testing.AllocsPerRun(200, get(db, lookupKey(31337))); n > 1 {
			t.Errorf("Get from a cached block: %.0f allocs, want <= 1", n)
		}
		if n := testing.AllocsPerRun(200, func() {
			if _, err := db.Get([]byte("user-absent")); err != kv.ErrNotFound {
				t.Fatalf("Get(absent) = %v", err)
			}
		}); n != 0 {
			t.Errorf("Get of an absent key: %.0f allocs, want 0", n)
		}
	})

	t.Run("evicting cache", func(t *testing.T) {
		// The block cache holds an eighth of the data, so most lookups read
		// their block — into the buffer of the one they evict. The value is
		// still the only allocation; averaged over thousands of lookups so a
		// fraction of one more would show.
		db := settledDB(t, 50000, 1<<20)
		_, missesBefore := db.BlockCacheStats()
		const perRun = 2000
		keys := make([][]byte, 6*perRun)
		for i := range keys {
			keys[i] = lookupKey(i * 997 % 50000)
		}
		i := 0
		n := testing.AllocsPerRun(5, func() {
			for j := 0; j < perRun; j++ {
				if v, err := db.Get(keys[i]); err != nil || len(v) != 128 {
					t.Fatalf("Get = %d bytes, %v", len(v), err)
				}
				i++
			}
		}) / perRun
		if _, misses := db.BlockCacheStats(); misses-missesBefore < 6*perRun/2 {
			t.Fatalf("only %d of %d lookups missed the block cache", misses-missesBefore, 6*perRun)
		}
		if n < 1 || n > 1.02 {
			t.Errorf("Get evicting a block to read its own: %.3f allocs, want 1", n)
		}
	})

	t.Run("block miss", func(t *testing.T) {
		// A cache of one block per shard at most: striding a block's worth
		// of keys per lookup makes every Get read its block.
		db := settledDB(t, 50000, 16*2048)
		var lookups []func()
		for i := 0; i <= 500; i++ {
			lookups = append(lookups, get(db, lookupKey(i*997%50000)))
		}
		i := 0
		_, missesBefore := db.BlockCacheStats()
		n := testing.AllocsPerRun(500, func() {
			lookups[i]()
			i++
		})
		_, missesAfter := db.BlockCacheStats()
		if missesAfter-missesBefore < 400 {
			t.Fatalf("only %d of 501 lookups missed the block cache", missesAfter-missesBefore)
		}
		if n > 2 {
			t.Errorf("Get on a block-cache miss: %.0f allocs, want <= 2 (the value, and a buffer when the free list has none that fits)", n)
		}
	})
}

// tableReads counts the reads, and the bytes read, of the table files opened
// through it.
type tableReads struct {
	vfs.FS
	reads, bytes atomic.Int64
}

func (c *tableReads) Open(name string) (vfs.File, error) {
	f, err := c.FS.Open(name)
	if err != nil || !strings.HasSuffix(name, ".sst") {
		return f, err
	}
	return countedFile{f, c}, nil
}

type countedFile struct {
	vfs.File
	c *tableReads
}

func (f countedFile) ReadAt(p []byte, off int64) (int, error) {
	n, err := f.File.ReadAt(p, off)
	f.c.reads.Add(1)
	f.c.bytes.Add(int64(n))
	return n, err
}

// TestGetReadsOneSmallBlock: a Get whose block is not cached reads that one
// data block from the device and nothing else (the table's index and filter
// were read when it opened), and the block is cut for the lookup — at most
// sstable.BlockSize, the entry that crossed it and the checksum trailer,
// not the 4 KiB block of a scan-sized cut.
func TestGetReadsOneSmallBlock(t *testing.T) {
	const n = 50000
	fs := &tableReads{FS: vfs.NewMem()}
	// 512 bytes a shard: no block fits, so every Get reads its own.
	db := settledDBOn(t, fs, n, 16*512)
	for i := 0; i < n; i += 500 { // open every table
		if _, err := db.Get(lookupKey(i)); err != nil {
			t.Fatal(err)
		}
	}
	// One entry: three one- or two-byte varints, the internal key, the
	// 128-byte value and the restart slot it may open.
	entry := 6 + len(lookupKey(0)) + ikey.TrailerLen + 128 + 4
	maxRead := int64(sstable.BlockSize + entry + block.TrailerLen)
	for i := 0; i < 200; i++ {
		key := lookupKey(i * 997 % n)
		reads, bytes := fs.reads.Load(), fs.bytes.Load()
		if v, err := db.Get(key); err != nil || len(v) != 128 {
			t.Fatalf("Get(%s) = %d bytes, %v", key, len(v), err)
		}
		reads, bytes = fs.reads.Load()-reads, fs.bytes.Load()-bytes
		if reads != 1 || bytes > maxRead {
			t.Fatalf("Get(%s) made %d reads of %d bytes, want one data block of at most %d", key, reads, bytes, maxRead)
		}
	}
}

// TestOneBloomEvaluationPerProbedTable: every table whose range covers the
// key has its filter consulted exactly once per lookup — it is either a
// bloom skip or a table probe, never both and never twice.
func TestOneBloomEvaluationPerProbedTable(t *testing.T) {
	db, err := Open("db", manualOpts(RocksDBOptions(vfs.NewMem()))) // every flushed table stays in L0
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	// Four overlapping L0 tables over the same key range; table t holds the
	// keys with i%4 == t, so any present key is in exactly one of them.
	const tables, n = 4, 4000
	for tbl := 0; tbl < tables; tbl++ {
		for i := tbl; i < n; i += tables {
			db.Put(lookupKey(i), []byte("v"))
		}
		// Range ends shared by all tables, so every table covers every key.
		db.Put(lookupKey(n+tbl), []byte("v"))
		db.Put([]byte(fmt.Sprintf("a-low-end-%d", tbl)), []byte("v"))
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(db.rs.Load().ver.Levels[0]); got != tables {
		t.Fatalf("%d L0 tables, want %d", got, tables)
	}

	before := db.Perf()
	const lookups = 1000
	for i := 0; i < lookups; i++ {
		// Absent keys inside the shared range: every table's filter runs.
		if _, err := db.Get([]byte(fmt.Sprintf("user%012d-absent", i+1))); err != kv.ErrNotFound {
			t.Fatal(err)
		}
	}
	after := db.Perf()
	skips, probes := after.BloomSkips-before.BloomSkips, after.TableProbes-before.TableProbes
	if skips+probes != lookups*tables {
		t.Errorf("absent keys: %d bloom skips + %d table probes = %d filter evaluations, want %d (one per covering table)",
			skips, probes, skips+probes, lookups*tables)
	}
	if probes > lookups*tables/20 {
		t.Errorf("%d of %d evaluations were false positives", probes, lookups*tables)
	}

	// A present key stops at the newest table that holds it: tables newer
	// than that one are skipped by their filters, that one is probed.
	before = db.Perf()
	for i := 0; i < n; i++ {
		if _, err := db.Get(lookupKey(i)); err != nil {
			t.Fatal(err)
		}
	}
	after = db.Perf()
	skips, probes = after.BloomSkips-before.BloomSkips, after.TableProbes-before.TableProbes
	// Table t (0 = oldest) is reached after the tables-1-t newer ones.
	want := int64(0)
	for tbl := 0; tbl < tables; tbl++ {
		want += int64(n/tables) * int64(tables-tbl)
	}
	if skips+probes != want {
		t.Errorf("present keys: %d skips + %d probes = %d filter evaluations, want %d", skips, probes, skips+probes, want)
	}
	if probes < n {
		t.Errorf("%d table probes for %d present keys", probes, n)
	}
}

// TestMultiGetAllocs: a multiget whose keys the memtable and cached blocks
// answer runs on its caller. It allocates the result slice and the values
// and nothing else; the device pass would add its closures, its counters and
// a goroutine start per reader.
func TestMultiGetAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation pins are not meaningful under the race detector")
	}
	db := settledDB(t, 50000, 64<<20)
	keys := make([][]byte, 16)
	for i := range keys {
		keys[i] = lookupKey(i * 3001 % 50000)
		if i%2 == 0 { // half of them newer in the memtable
			if err := db.Put(keys[i], make([]byte, 128)); err != nil {
				t.Fatal(err)
			}
		}
	}
	multiGet := func() {
		vals, err := db.MultiGet(keys)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range vals {
			if len(v) != 128 {
				t.Fatalf("MultiGet: key %s = %d bytes", keys[i], len(v))
			}
		}
	}
	multiGet() // opens the tables and caches the blocks
	_, missesBefore := db.BlockCacheStats()
	n := testing.AllocsPerRun(200, multiGet)
	if _, misses := db.BlockCacheStats(); misses != missesBefore {
		t.Fatalf("%d block-cache misses after the warm-up", misses-missesBefore)
	}
	if want := float64(1 + len(keys)); n > want {
		t.Errorf("MultiGet of %d cached keys: %.0f allocs, want <= %.0f (the result slice and the values)", len(keys), n, want)
	}
}

// TestMultiGetCountsProbesOnce: a key the memory pass tries and then leaves
// to the device pass is counted once. A multiget mixing keys in cached
// blocks, keys in blocks never read and absent keys adds to Perf what the
// same keys read one Get at a time add.
func TestMultiGetCountsProbesOnce(t *testing.T) {
	db := settledDB(t, 50000, 64<<20)
	var cached, keys [][]byte
	for i := 0; i < 40; i++ {
		k := lookupKey(i * 1200)
		cached = append(cached, k)
		keys = append(keys, k, lookupKey(i*1200+600), []byte(fmt.Sprintf("user%012d-absent", i*1200)))
	}
	for _, k := range cached { // opens the tables and caches these keys' blocks
		if _, err := db.Get(k); err != nil {
			t.Fatal(err)
		}
	}
	before := db.Perf()
	hitsBefore, missesBefore := db.BlockCacheStats()
	vals, err := db.MultiGet(keys)
	if err != nil {
		t.Fatal(err)
	}
	mg := db.Perf()
	hits, misses := db.BlockCacheStats()
	if hits == hitsBefore || misses == missesBefore {
		t.Fatalf("block cache hits +%d, misses +%d: the multiget did not mix cached and uncached keys", hits-hitsBefore, misses-missesBefore)
	}
	for i, k := range keys {
		if want := i%3 != 2; (vals[i] != nil) != want {
			t.Fatalf("MultiGet: %s present %v, want %v", k, vals[i] != nil, want)
		}
	}
	for _, k := range keys {
		if _, err := db.Get(k); err != nil && err != kv.ErrNotFound {
			t.Fatal(err)
		}
	}
	gets := db.Perf()
	for _, c := range []struct {
		name            string
		multi, oneByOne int64
	}{
		{"gets", mg.GetCount - before.GetCount, gets.GetCount - mg.GetCount},
		{"table probes", mg.TableProbes - before.TableProbes, gets.TableProbes - mg.TableProbes},
		{"bloom skips", mg.BloomSkips - before.BloomSkips, gets.BloomSkips - mg.BloomSkips},
	} {
		if c.multi != c.oneByOne {
			t.Errorf("%s: the multiget counted %d, the same keys one Get at a time %d", c.name, c.multi, c.oneByOne)
		}
	}
}

// TestReadsDuringRotationFlushCompaction is the proof that every site that
// changes what a read must consult republishes the read state: readers Get a
// key set without any lock while a writer overwrites it through memtable
// rotations, flushes and compactions. Every read must return a version at
// least as new as the last write acknowledged before the read began, and no
// file-not-found may escape Get's stale-version retry. The second arm runs it
// on a 64 KiB block cache — every block read evicts another, or is too large
// for its shard and stays private to its reader — with a scanner walking the
// key set as well: no reader may see a block recycled under its pin.
func TestReadsDuringRotationFlushCompaction(t *testing.T) {
	t.Run("default block cache", func(t *testing.T) { testReadsDuringRotationFlushCompaction(t, 0) })
	t.Run("64 KiB block cache", func(t *testing.T) { testReadsDuringRotationFlushCompaction(t, 64<<10) })
}

func testReadsDuringRotationFlushCompaction(t *testing.T, blockCache int64) {
	opts := smallOpts(vfs.NewMem())
	opts.MemTableSize = 8 << 10 // rotate every few dozen writes
	opts.BlockCacheSize = blockCache
	db, err := Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	const keys, readers = 64, 4
	rounds := 400
	if testing.Short() {
		rounds = 100
	}
	encode := func(version uint64) []byte {
		v := make([]byte, 200)
		binary.LittleEndian.PutUint64(v, version)
		return v
	}
	var acked [keys]atomic.Uint64 // newest acknowledged version of each key
	for k := 0; k < keys; k++ {
		if err := db.Put(lookupKey(k), encode(1)); err != nil {
			t.Fatal(err)
		}
		acked[k].Store(1)
	}

	var (
		stop  atomic.Bool
		wg    sync.WaitGroup
		reads atomic.Int64
	)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			get := db.Get
			if r == readers-1 {
				// MultiGet's one-key arm retries a stale file as Get does.
				get = func(key []byte) ([]byte, error) {
					vs, err := db.MultiGet([][]byte{key})
					if err != nil {
						return nil, err
					}
					if vs[0] == nil {
						return nil, kv.ErrNotFound
					}
					return vs[0], nil
				}
			}
			for i := r; !stop.Load(); i++ {
				k := i % keys
				floor := acked[k].Load()
				v, err := get(lookupKey(k))
				if err != nil {
					if errors.Is(err, os.ErrNotExist) {
						t.Errorf("stale-file error escaped Get: %v", err)
					} else {
						t.Errorf("Get(%d): %v", k, err)
					}
					return
				}
				if got := binary.LittleEndian.Uint64(v); got < floor {
					t.Errorf("Get(%d) returned version %d after version %d was acknowledged", k, got, floor)
					return
				}
				reads.Add(1)
				// Yield: four spinning readers on a small host starve the
				// flush and compaction goroutines, and every round then
				// waits out a write stall (seconds a run).
				runtime.Gosched()
			}
		}(r)
	}

	if blockCache != 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				var floor [keys]uint64
				for k := range floor {
					floor[k] = acked[k].Load()
				}
				it, err := db.NewIterator()
				if err != nil {
					t.Errorf("NewIterator: %v", err)
					return
				}
				k := 0
				for it.SeekToFirst(); it.Valid(); it.Next() {
					if got := binary.LittleEndian.Uint64(it.Value()); string(it.Key()) != string(lookupKey(k)) || got < floor[k] {
						t.Errorf("scan at %q (want key %d): version %d after version %d was acknowledged", it.Key(), k, got, floor[k])
					}
					k++
				}
				if err := it.Error(); err != nil && !errors.Is(err, os.ErrNotExist) {
					t.Errorf("scan: %v", err)
				} else if err == nil && k != keys {
					t.Errorf("scan saw %d of %d keys", k, keys)
				}
				it.Close()
				reads.Add(1)
				runtime.Gosched()
			}
		}()
	}

	flushes := db.Perf().Flushes
	for round := 2; round < rounds+2; round++ {
		for k := 0; k < keys; k++ {
			if err := db.Put(lookupKey(k), encode(uint64(round))); err != nil {
				t.Fatal(err)
			}
			acked[k].Store(uint64(round))
		}
		switch {
		case round%97 == 0:
			if err := db.CompactAll(); err != nil {
				t.Fatal(err)
			}
		case round%31 == 0:
			if err := db.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Let the readers run against the settling background work too.
	deadline := time.Now().Add(2 * time.Second)
	for reads.Load() < 1000 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	stop.Store(true)
	wg.Wait()

	p := db.Perf()
	if p.Flushes-flushes < 5 || p.Compactions == 0 {
		t.Fatalf("run exercised %d flushes and %d compactions; too quiet to prove anything", p.Flushes-flushes, p.Compactions)
	}
	if n := db.blocks.Pinned(); n != 0 {
		t.Fatalf("%d blocks still pinned with every reader and scanner done", n)
	}
	t.Logf("%d verified reads across %d flushes and %d compactions", reads.Load(), p.Flushes-flushes, p.Compactions)
}

// TestCompactionStaysOffTheBlockCache: a merge reads its inputs through
// private buffers, so the block cache sees user reads only — no probes, no
// fills, no live block evicted for a file about to be deleted — and a file
// leaving the version takes its cached blocks with it instead of letting
// them hold budget until they age out.
func TestCompactionStaysOffTheBlockCache(t *testing.T) {
	db := settledDB(t, 20000, 1<<20) // fill, flush, compact: not one read
	if hits, misses := db.BlockCacheStats(); hits != 0 || misses != 0 {
		t.Fatalf("block cache saw %d hits and %d misses from flush and compaction alone", hits, misses)
	}
	for i := 0; i < 20000; i += 10 {
		if _, err := db.Get(lookupKey(i)); err != nil {
			t.Fatal(err)
		}
	}
	hits, misses := db.BlockCacheStats()
	if _, _, resident := db.blocks.Stats(); misses == 0 || resident == 0 {
		t.Fatalf("setup: reads left %d misses and %d resident bytes", misses, resident)
	}
	var b kv.Batch
	for i := 0; i < 20000; i++ { // a newer version of everything: every file is rewritten
		b.Put(lookupKey(i), make([]byte, 128))
	}
	if err := db.Write(&b); err != nil {
		t.Fatal(err)
	}
	if err := db.CompactRange(nil, nil); err != nil {
		t.Fatal(err)
	}
	if h, m := db.BlockCacheStats(); h != hits || m != misses {
		t.Fatalf("compaction moved the block-cache counters: %d/%d -> %d/%d", hits, misses, h, m)
	}
	if _, _, resident := db.blocks.Stats(); resident != 0 || db.blocks.Pinned() != 0 {
		t.Fatalf("%d bytes of deleted files still cached, %d blocks pinned", resident, db.blocks.Pinned())
	}
}

// TestIteratorCloseReleasesPins: a scan abandoned mid-table holds one pinned
// block per table it is positioned in, and Close gives every one back.
func TestIteratorCloseReleasesPins(t *testing.T) {
	db := settledDB(t, 20000, 1<<20)
	it, err := db.NewIterator()
	if err != nil {
		t.Fatal(err)
	}
	it.Seek(lookupKey(10000))
	if !it.Valid() || string(it.Key()) != string(lookupKey(10000)) || db.blocks.Pinned() == 0 {
		t.Fatalf("Seek: valid %v at %q, %d blocks pinned", it.Valid(), it.Key(), db.blocks.Pinned())
	}
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
	if n := db.blocks.Pinned(); n != 0 {
		t.Fatalf("%d blocks pinned after Close", n)
	}
}

// TestGetResultIsCallerOwned: the slice Get returns is the caller's to
// scribble on, whether it came from the memtable or from a cached block.
func TestGetResultIsCallerOwned(t *testing.T) {
	db, err := Open("db", RocksDBOptions(vfs.NewMem()))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	key := []byte("owned")
	db.Put(key, []byte("original"))
	check := func(from string) {
		t.Helper()
		for i := 0; i < 2; i++ {
			v, err := db.Get(key)
			if err != nil || string(v) != "original" {
				t.Fatalf("%s, read %d: Get = %q, %v", from, i, v, err)
			}
			copy(v, "SCRIBBLE")
		}
	}
	check("memtable")
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	check("table") // the second read is a block-cache hit
}

// BenchmarkGetHit and BenchmarkGetMiss are the ten-second inner loop for
// the point-lookup path: settled data, uniform keys, the block cache larger
// than the data (hit) or a small fraction of it (miss). dev-B/get is the
// table bytes read from the device per Get.
//
//	go test -run '^$' -bench 'BenchmarkGet' -benchmem ./internal/lsm
func BenchmarkGetHit(b *testing.B)  { benchmarkGet(b, 64<<20) }
func BenchmarkGetMiss(b *testing.B) { benchmarkGet(b, 256<<10) }

var benchSink []byte

func benchmarkGet(b *testing.B, blockCache int64) {
	const n = 200000
	fs := &tableReads{FS: vfs.NewMem()}
	db := settledDBOn(b, fs, n, blockCache)
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = lookupKey(i)
	}
	x := uint64(88172645463325252)
	next := func() []byte { // xorshift: cheap, allocation-free, uniform
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return keys[x%n]
	}
	for i := 0; i < n; i++ { // touch every block once so "hit" means hit
		db.Get(next())
	}
	devBytes := fs.bytes.Load()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, err := db.Get(next())
		if err != nil {
			b.Fatal(err)
		}
		benchSink = v
	}
	b.StopTimer()
	hits, misses := db.BlockCacheStats()
	b.ReportMetric(float64(hits)/float64(hits+misses), "cache-hit-ratio")
	b.ReportMetric(float64(fs.bytes.Load()-devBytes)/float64(b.N), "dev-B/get")
}

// TestWriteAllocs pins the engine's write path — WAL payload, log append,
// memtable insert — at its amortised refills: an arena chunk per MiB of
// entries, a node and a tower slab chunk per few thousand, the log file's
// growth. Nothing is allocated per Write or per op, on the pipelined
// concurrent-memtable preset and on the serialized exclusive one alike.
func TestWriteAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation pins are not meaningful under the race detector")
	}
	for _, preset := range []struct {
		name string
		opts func(vfs.FS) Options
	}{{"rocksdb", RocksDBOptions}, {"leveldb", LevelDBOptions}} {
		for _, nops := range []int{1, 16} {
			opts := preset.opts(vfs.NewMem())
			opts.MemTableSize = 1 << 30 // no flush in the window: the sstable writer has its own pin
			db, err := Open("db", opts)
			if err != nil {
				t.Fatal(err)
			}
			keys := make([][]byte, nops)
			for i := range keys {
				keys[i] = make([]byte, 16)
			}
			val := make([]byte, 128)
			seq := uint64(0)
			var b kv.Batch
			write := func() {
				b.Reset()
				for _, k := range keys {
					seq++
					binary.BigEndian.PutUint64(k[8:], seq*0x9E3779B97F4A7C15)
					b.Put(k, val)
				}
				if err := db.Write(&b); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 100; i++ { // warm: first chunks, payload and log buffers
				write()
			}
			// AllocsPerRun reports whole allocations per run: a run is 10,000 writes.
			const perRun = 10_000
			got := testing.AllocsPerRun(1, func() {
				for i := 0; i < perRun; i++ {
					write()
				}
			}) / perRun
			db.Close()
			t.Logf("%s, %d-op Write: %.4f allocs/write", preset.name, nops, got)
			if got > 0.05 {
				t.Errorf("%s, %d-op Write: %.4f allocs/write, want <= 0.05", preset.name, nops, got)
			}
		}
	}
}
