package lsm

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"p2kvs/internal/kv"
	"p2kvs/internal/manifest"
	"p2kvs/internal/vfs"
	"p2kvs/internal/wal"
)

// smallOpts returns options tuned so tiny tests exercise rotation and
// compaction.
func smallOpts(fs vfs.FS) Options {
	o := RocksDBOptions(fs)
	o.MemTableSize = 16 << 10
	o.BaseLevelSize = 64 << 10
	o.TargetFileSize = 16 << 10
	return o
}

func presets(fs vfs.FS) map[string]Options {
	shrink := func(o Options) Options {
		o.MemTableSize = 16 << 10
		o.BaseLevelSize = 64 << 10
		o.TargetFileSize = 16 << 10
		return o
	}
	return map[string]Options{
		"rocksdb":   shrink(RocksDBOptions(fs)),
		"leveldb":   shrink(LevelDBOptions(fs)),
		"pebblesdb": shrink(PebblesDBOptions(fs)),
	}
}

func TestPutGetDelete(t *testing.T) {
	for name, opts := range presets(vfs.NewMem()) {
		t.Run(name, func(t *testing.T) {
			db, err := Open("db-"+name, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()

			if err := db.Put([]byte("k"), []byte("v")); err != nil {
				t.Fatal(err)
			}
			v, err := db.Get([]byte("k"))
			if err != nil || string(v) != "v" {
				t.Fatalf("Get = %q, %v", v, err)
			}
			if _, err := db.Get([]byte("absent")); err != kv.ErrNotFound {
				t.Fatalf("Get(absent) err = %v", err)
			}
			if err := db.Delete([]byte("k")); err != nil {
				t.Fatal(err)
			}
			if _, err := db.Get([]byte("k")); err != kv.ErrNotFound {
				t.Fatalf("Get after delete err = %v", err)
			}
			// Overwrite.
			db.Put([]byte("k"), []byte("v1"))
			db.Put([]byte("k"), []byte("v2"))
			v, _ = db.Get([]byte("k"))
			if string(v) != "v2" {
				t.Fatalf("overwrite lost: %q", v)
			}
		})
	}
}

func TestWriteBatchAtomicVisibility(t *testing.T) {
	fs := vfs.NewMem()
	db, _ := Open("db", smallOpts(fs))
	defer db.Close()
	var b kv.Batch
	b.Put([]byte("a"), []byte("1"))
	b.Put([]byte("b"), []byte("2"))
	b.Delete([]byte("a"))
	if err := db.Write(&b); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Get([]byte("a")); err != kv.ErrNotFound {
		t.Fatal("delete inside batch must win over earlier put")
	}
	if v, _ := db.Get([]byte("b")); string(v) != "2" {
		t.Fatal("batch put lost")
	}
}

func TestFlushAndGetFromSST(t *testing.T) {
	for name, opts := range presets(vfs.NewMem()) {
		t.Run(name, func(t *testing.T) {
			db, _ := Open("db-"+name, opts)
			defer db.Close()
			for i := 0; i < 500; i++ {
				db.Put([]byte(fmt.Sprintf("key%05d", i)), []byte(fmt.Sprintf("val%d", i)))
			}
			if err := db.Flush(); err != nil {
				t.Fatal(err)
			}
			m := db.Metrics()
			files := 0
			for _, n := range m.LevelFiles {
				files += n
			}
			if files == 0 {
				t.Fatal("flush produced no SSTables")
			}
			for i := 0; i < 500; i += 13 {
				v, err := db.Get([]byte(fmt.Sprintf("key%05d", i)))
				if err != nil || string(v) != fmt.Sprintf("val%d", i) {
					t.Fatalf("Get(%d) = %q, %v", i, v, err)
				}
			}
		})
	}
}

// fill writes n keys with a deterministic permutation and values tagged
// by round so overwrite correctness is checkable after compactions.
func fill(t *testing.T, db *DB, n, round int) {
	t.Helper()
	r := rand.New(rand.NewSource(int64(round)))
	perm := r.Perm(n)
	for _, i := range perm {
		key := fmt.Sprintf("key%06d", i)
		val := fmt.Sprintf("r%d-val%06d", round, i)
		if err := db.Put([]byte(key), []byte(val)); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCompactionPreservesData(t *testing.T) {
	for name, opts := range presets(vfs.NewMem()) {
		t.Run(name, func(t *testing.T) {
			db, err := Open("db-"+name, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			const n = 2000
			fill(t, db, n, 1)
			fill(t, db, n, 2) // overwrite everything
			if err := db.CompactAll(); err != nil {
				t.Fatal(err)
			}
			p := db.Perf()
			if p.Compactions == 0 {
				t.Fatal("test did not exercise compaction")
			}
			for i := 0; i < n; i += 7 {
				key := fmt.Sprintf("key%06d", i)
				v, err := db.Get([]byte(key))
				if err != nil {
					t.Fatalf("Get(%s) err = %v", key, err)
				}
				want := fmt.Sprintf("r2-val%06d", i)
				if string(v) != want {
					t.Fatalf("Get(%s) = %q, want %q", key, v, want)
				}
			}
		})
	}
}

func TestLeveledInvariantDisjointLevels(t *testing.T) {
	fs := vfs.NewMem()
	db, _ := Open("db", smallOpts(fs))
	defer db.Close()
	fill(t, db, 3000, 1)
	if err := db.CompactAll(); err != nil {
		t.Fatal(err)
	}
	db.mu.Lock()
	v := db.vs.Current()
	db.mu.Unlock()
	for level := 1; level < manifest.NumLevels; level++ {
		files := v.Levels[level]
		for i := 1; i < len(files); i++ {
			prevHi := string(files[i-1].Largest)
			curLo := string(files[i].Smallest)
			if prevHi >= curLo {
				// Compare user keys to be precise.
				t.Fatalf("L%d files overlap: %q vs %q", level, prevHi, curLo)
			}
		}
	}
}

func TestFragmentedLowerWriteAmp(t *testing.T) {
	// The defining property of the PebblesDB preset: materially lower
	// compaction write amplification than leveled on the same workload.
	run := func(opts Options) float64 {
		db, err := Open("db", opts)
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		fill(t, db, 6000, 1)
		fill(t, db, 6000, 2)
		if err := db.CompactAll(); err != nil {
			t.Fatal(err)
		}
		p := db.Perf()
		return float64(p.FlushBytes+p.CompactWrite) / float64(p.UserBytes)
	}
	lev := presets(vfs.NewMem())["leveldb"]
	frag := presets(vfs.NewMem())["pebblesdb"]
	waLeveled := run(lev)
	waFrag := run(frag)
	if waFrag >= waLeveled {
		t.Fatalf("fragmented WA (%.2f) not lower than leveled (%.2f)", waFrag, waLeveled)
	}
}

func TestIteratorFullScan(t *testing.T) {
	for name, opts := range presets(vfs.NewMem()) {
		t.Run(name, func(t *testing.T) {
			db, _ := Open("db-"+name, opts)
			defer db.Close()
			const n = 1500
			fill(t, db, n, 1)
			// Delete every 10th key; overwrite every 7th.
			for i := 0; i < n; i += 10 {
				db.Delete([]byte(fmt.Sprintf("key%06d", i)))
			}
			for i := 0; i < n; i += 7 {
				db.Put([]byte(fmt.Sprintf("key%06d", i)), []byte("upd"))
			}
			db.CompactAll()

			it, err := db.NewIterator()
			if err != nil {
				t.Fatal(err)
			}
			defer it.Close()
			count := 0
			prev := ""
			for it.SeekToFirst(); it.Valid(); it.Next() {
				k := string(it.Key())
				if prev != "" && k <= prev {
					t.Fatalf("iterator out of order: %q after %q", k, prev)
				}
				prev = k
				var i int
				fmt.Sscanf(k, "key%d", &i)
				if i%10 == 0 && i%7 != 0 {
					t.Fatalf("deleted key %q surfaced", k)
				}
				if i%7 == 0 && string(it.Value()) != "upd" {
					t.Fatalf("key %q value %q, want upd", k, it.Value())
				}
				count++
			}
			if it.Error() != nil {
				t.Fatal(it.Error())
			}
			want := 0
			for i := 0; i < n; i++ {
				if i%10 == 0 && i%7 != 0 {
					continue
				}
				want++
			}
			if count != want {
				t.Fatalf("scanned %d keys, want %d", count, want)
			}

			// Seek semantics.
			it2, _ := db.NewIterator()
			defer it2.Close()
			it2.Seek([]byte("key000500"))
			if !it2.Valid() {
				t.Fatal("seek found nothing")
			}
			if string(it2.Key()) < "key000500" {
				t.Fatalf("seek landed before target: %q", it2.Key())
			}
		})
	}
}

func TestMultiGet(t *testing.T) {
	fs := vfs.NewMem()
	db, _ := Open("db", smallOpts(fs))
	defer db.Close()
	for i := 0; i < 100; i++ {
		db.Put([]byte(fmt.Sprintf("k%03d", i)), []byte(fmt.Sprintf("v%d", i)))
	}
	keys := [][]byte{[]byte("k005"), []byte("missing"), []byte("k099")}
	vals, err := db.MultiGet(keys)
	if err != nil {
		t.Fatal(err)
	}
	if string(vals[0]) != "v5" || vals[1] != nil || string(vals[2]) != "v99" {
		t.Fatalf("MultiGet = %q", vals)
	}

	// LevelDB preset must report no multiget capability.
	ldb, _ := Open("db2", LevelDBOptions(fs))
	defer ldb.Close()
	if ldb.Caps().MultiGet {
		t.Fatal("LevelDB preset must not report MultiGet")
	}
	if _, err := ldb.MultiGet(keys); err == nil {
		t.Fatal("MultiGet must fail when disabled")
	}
}

func TestRecoveryFromWAL(t *testing.T) {
	fs := vfs.NewMem()
	opts := smallOpts(fs)
	opts.WALSync = wal.PolicyCommit
	db, _ := Open("db", opts)
	for i := 0; i < 200; i++ {
		db.Put([]byte(fmt.Sprintf("k%04d", i)), []byte(fmt.Sprintf("v%d", i)))
	}
	db.Delete([]byte("k0100"))
	// Crash: drop unsynced state. The old instance's goroutines must be
	// stopped too — a real crash kills the process, but here the zombie
	// would keep mutating the shared directory under the recovered DB.
	fs.Crash()
	db.Close()
	fs.Restart()

	db2, err := Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("k%04d", i)
		v, err := db2.Get([]byte(key))
		if i == 100 {
			if err != kv.ErrNotFound {
				t.Fatalf("deleted key recovered: %q %v", v, err)
			}
			continue
		}
		if err != nil || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("Get(%s) after recovery = %q, %v", key, v, err)
		}
	}
	// New writes after recovery must work.
	if err := db2.Put([]byte("post"), []byte("crash")); err != nil {
		t.Fatal(err)
	}
}

func TestRecoveryAfterFlushAndCompaction(t *testing.T) {
	fs := vfs.NewMem()
	opts := smallOpts(fs)
	opts.WALSync = wal.PolicyCommit
	db, _ := Open("db", opts)
	fill(t, db, 2000, 1)
	db.CompactAll()
	fill(t, db, 300, 2) // some post-compaction writes stay in WAL/memtable
	fs.Crash()
	db.Close() // stop the zombie instance (a real crash kills the process)
	fs.Restart()

	db2, err := Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	for i := 0; i < 300; i += 11 {
		key := fmt.Sprintf("key%06d", i)
		v, err := db2.Get([]byte(key))
		if err != nil || string(v) != fmt.Sprintf("r2-val%06d", i) {
			t.Fatalf("Get(%s) = %q %v", key, v, err)
		}
	}
	for i := 300; i < 2000; i += 97 {
		key := fmt.Sprintf("key%06d", i)
		v, err := db2.Get([]byte(key))
		if err != nil || string(v) != fmt.Sprintf("r1-val%06d", i) {
			t.Fatalf("Get(%s) = %q %v", key, v, err)
		}
	}
}

func TestRecoveryWithGSNFilter(t *testing.T) {
	fs := vfs.NewMem()
	opts := smallOpts(fs)
	opts.WALSync = wal.PolicyCommit
	db, _ := Open("db", opts)
	var b1, b2 kv.Batch
	b1.Put([]byte("committed"), []byte("yes"))
	b2.Put([]byte("uncommitted"), []byte("no"))
	db.WriteGSN(&b1, 10)
	db.WriteGSN(&b2, 11)
	fs.Crash()
	db.Close() // stop the zombie instance
	fs.Restart()

	db2, err := OpenWith("db", opts, OpenOptions{
		RecoverFilter: func(gsn uint64) bool { return gsn == 10 },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if v, err := db2.Get([]byte("committed")); err != nil || string(v) != "yes" {
		t.Fatalf("committed txn lost: %q %v", v, err)
	}
	if _, err := db2.Get([]byte("uncommitted")); err != kv.ErrNotFound {
		t.Fatal("uncommitted txn survived rollback")
	}
}

func TestConcurrentWriters(t *testing.T) {
	fs := vfs.NewMem()
	db, _ := Open("db", smallOpts(fs))
	defer db.Close()
	const (
		goroutines = 8
		perG       = 400
	)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				key := fmt.Sprintf("g%d-k%04d", g, i)
				if err := db.Put([]byte(key), []byte(key)); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if err := db.CompactAll(); err != nil {
		t.Fatal(err)
	}
	for g := 0; g < goroutines; g++ {
		for i := 0; i < perG; i += 37 {
			key := fmt.Sprintf("g%d-k%04d", g, i)
			v, err := db.Get([]byte(key))
			if err != nil || string(v) != key {
				t.Fatalf("Get(%s) = %q %v", key, v, err)
			}
		}
	}
}

func TestWALOnlyAndMemTableOnlyModes(t *testing.T) {
	fs := vfs.NewMem()
	// WAL-only: writes succeed, reads find nothing (no indexing).
	oWAL := smallOpts(fs)
	oWAL.WALOnly = true
	db, _ := Open("walonly", oWAL)
	db.Put([]byte("k"), []byte("v"))
	if _, err := db.Get([]byte("k")); err != kv.ErrNotFound {
		t.Fatal("WALOnly mode must not index")
	}
	p := db.Perf()
	if p.WALTime == 0 && p.Writes > 0 {
		t.Log("warning: WAL time not recorded (fast clock)")
	}
	db.Close()

	// MemTable-only with WAL disabled: writes indexed, flush drops data.
	oMem := smallOpts(fs)
	oMem.DisableWAL = true
	oMem.MemTableOnly = true
	db2, _ := Open("memonly", oMem)
	defer db2.Close()
	db2.Put([]byte("k"), []byte("v"))
	if v, err := db2.Get([]byte("k")); err != nil || string(v) != "v" {
		t.Fatalf("MemTableOnly Get = %q %v", v, err)
	}
	if err := db2.Flush(); err != nil {
		t.Fatal(err)
	}
	m := db2.Metrics()
	for _, n := range m.LevelFiles {
		if n != 0 {
			t.Fatal("MemTableOnly mode must not create SSTables")
		}
	}
}

func TestPerfBreakdownAccumulates(t *testing.T) {
	fs := vfs.NewMem()
	db, _ := Open("db", smallOpts(fs))
	defer db.Close()
	for i := 0; i < 200; i++ {
		db.Put([]byte(fmt.Sprintf("k%04d", i)), make([]byte, 100))
	}
	p := db.Perf()
	if p.Writes != 200 {
		t.Fatalf("writes = %d", p.Writes)
	}
	if p.TotalTime <= 0 {
		t.Fatal("total time not accumulated")
	}
	if p.UserBytes <= 0 {
		t.Fatal("user bytes not accumulated")
	}
	if p.OtherTime() < 0 {
		t.Fatal("negative residual")
	}
}

func TestCloseIdempotentAndRejectsOps(t *testing.T) {
	fs := vfs.NewMem()
	db, _ := Open("db", smallOpts(fs))
	db.Put([]byte("k"), []byte("v"))
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal("second close must be nil")
	}
	if err := db.Put([]byte("x"), []byte("y")); err != kv.ErrClosed {
		t.Fatalf("Put after close = %v", err)
	}
	if _, err := db.Get([]byte("k")); err != kv.ErrClosed {
		t.Fatalf("Get after close = %v", err)
	}
	// Reopen sees the data (clean close keeps the WAL).
	db2, err := Open("db", smallOpts(fs))
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if v, err := db2.Get([]byte("k")); err != nil || string(v) != "v" {
		t.Fatalf("reopen Get = %q %v", v, err)
	}
}
