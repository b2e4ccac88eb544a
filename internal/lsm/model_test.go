package lsm

import (
	"fmt"
	"testing"

	"p2kvs/internal/vfs"
	"p2kvs/internal/wal"
)

// TestWriteStallEngages verifies backpressure: with a tiny L0 stall
// trigger and compaction disabled-in-practice (huge level targets are
// not used — instead we flood faster than flush by disabling the
// background worker's progress via many immutables), writers must block
// rather than grow state unboundedly, and resume when flush catches up.
func TestWriteStallEngages(t *testing.T) {
	fs := vfs.NewMem()
	opts := RocksDBOptions(fs)
	opts.MemTableSize = 2 << 10
	opts.MaxImmutables = 1
	opts.L0CompactionTrigger = 2
	opts.L0StallTrigger = 4
	opts.BaseLevelSize = 16 << 10
	db, err := Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for i := 0; i < 3000; i++ {
		if err := db.Put([]byte(fmt.Sprintf("k%06d", i)), make([]byte, 64)); err != nil {
			t.Fatal(err)
		}
	}
	p := db.Perf()
	if p.StallTime == 0 {
		t.Log("note: no stall engaged (flush kept up); acceptable but unusual at these settings")
	}
	// Regardless of stalls, all data must be readable.
	for i := 0; i < 3000; i += 501 {
		if _, err := db.Get([]byte(fmt.Sprintf("k%06d", i))); err != nil {
			t.Fatalf("Get(%d) = %v", i, err)
		}
	}
}

// TestSecondCrashAfterRecovery covers the double-crash path: recover,
// write more, crash again, recover again. Recovery flushes what it replays
// to an L0 table, newest version of each key, and starts an empty WAL; the
// second recovery must read that table and the new WAL together.
func TestSecondCrashAfterRecovery(t *testing.T) {
	fs := vfs.NewMem()
	opts := smallOpts(fs)
	opts.WALSync = wal.PolicyCommit

	db, _ := Open("db", opts)
	for i := 0; i < 100; i++ {
		db.Put([]byte(fmt.Sprintf("k%03d", i)), []byte("v1"))
	}
	// Overwrite some so the memtable holds multiple versions per key.
	for i := 0; i < 100; i += 2 {
		db.Put([]byte(fmt.Sprintf("k%03d", i)), []byte("v2"))
	}
	fs.Crash()
	db.Close()
	fs.Restart()

	db2, err := Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	l0 := db2.vs.Current().Levels[0]
	if len(l0) != 1 {
		t.Fatalf("after recovery L0 holds %d tables, want the one recovery flushed", len(l0))
	}
	if l0[0].Entries != 100 {
		t.Fatalf("the recovered table holds %d entries, want the 100 keys' newest versions", l0[0].Entries)
	}
	if recs, err := wal.ReadAll(fs, walName("db", db2.memH.logNum)); err != nil || len(recs) != 0 {
		t.Fatalf("the fresh WAL holds %d records (%v), want none", len(recs), err)
	}
	for i := 100; i < 150; i++ {
		db2.Put([]byte(fmt.Sprintf("k%03d", i)), []byte("v3"))
	}
	fs.Crash()
	db2.Close()
	fs.Restart()

	db3, err := Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db3.Close()
	for i := 0; i < 150; i++ {
		want := "v1"
		if i%2 == 0 && i < 100 {
			want = "v2"
		}
		if i >= 100 {
			want = "v3"
		}
		v, err := db3.Get([]byte(fmt.Sprintf("k%03d", i)))
		if err != nil || string(v) != want {
			t.Fatalf("after double crash: Get(k%03d) = %q %v, want %q", i, v, err, want)
		}
	}
}

func TestCompactRange(t *testing.T) {
	fs := vfs.NewMem()
	db, _ := Open("db", smallOpts(fs))
	defer db.Close()
	const n = 3000
	fill(t, db, n, 1)
	// Delete a band of keys, then manually compact that band: the
	// tombstones and shadowed versions must be reclaimed.
	for i := 1000; i < 2000; i++ {
		db.Delete([]byte(fmt.Sprintf("key%06d", i)))
	}
	if err := db.CompactRange([]byte("key001000"), []byte("key001999")); err != nil {
		t.Fatal(err)
	}
	// Deleted band gone, surrounding data intact.
	for i := 0; i < n; i += 97 {
		key := fmt.Sprintf("key%06d", i)
		_, err := db.Get([]byte(key))
		if i >= 1000 && i < 2000 {
			if err == nil {
				t.Fatalf("deleted key %s survived CompactRange", key)
			}
		} else if err != nil {
			t.Fatalf("key %s lost by CompactRange: %v", key, err)
		}
	}
	// Full-range manual compaction leaves a clean tree and keeps data.
	if err := db.CompactRange(nil, nil); err != nil {
		t.Fatal(err)
	}
	m := db.Metrics()
	if m.LevelFiles[0] != 0 {
		t.Fatalf("L0 not drained by full CompactRange: %d files", m.LevelFiles[0])
	}
	if _, err := db.Get([]byte("key000000")); err != nil {
		t.Fatal(err)
	}
}
