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

// manualOpts leaves o's flush and compaction goroutines nothing to start on
// their own: no write fills a memtable, and no L0 count or level size
// schedules a compaction or slows a writer. Only explicit Flush and
// CompactRange calls do work, so a test can count exactly what they did.
func manualOpts(o Options) Options {
	o.MemTableSize = 1 << 30
	o.L0CompactionTrigger, o.L0SlowdownTrigger, o.L0StallTrigger = 1<<20, 1<<20, 1<<20
	o.BaseLevelSize = 1 << 40
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

	// MemTable-only (no WAL): writes indexed, flush drops data.
	oMem := smallOpts(fs)
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
