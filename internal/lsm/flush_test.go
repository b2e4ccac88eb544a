package lsm

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"testing"
	"time"

	"p2kvs/internal/ikey"
	"p2kvs/internal/kv"
	"p2kvs/internal/manifest"
	"p2kvs/internal/memtable"
	"p2kvs/internal/vfs"
)

// newestL0 returns the most recently flushed L0 table.
func newestL0(t testing.TB, db *DB) *manifest.FileMeta {
	t.Helper()
	var newest *manifest.FileMeta
	for _, fm := range db.rs.Load().ver.Levels[0] {
		if newest == nil || fm.Num > newest.Num {
			newest = fm
		}
	}
	if newest == nil {
		t.Fatal("no L0 table")
	}
	return newest
}

// TestFlushKeepsNewestVersion: a flush writes one entry per user key, the
// newest, tombstones included, and reads see exactly the memtable's newest
// state through Get and a scan, before and after a crash and reopen.
func TestFlushKeepsNewestVersion(t *testing.T) {
	const (
		long = "a-key-longer-than-sixteen-bytes"
		pfx  = "sixteen-byte-pfx" // 16 bytes: pfx1 and pfx2 tie on it
		pfx1 = pfx + "/1"
		pfx2 = pfx + "/2"
	)
	for name, o := range presets(nil) {
		t.Run(name, func(t *testing.T) {
			fs := vfs.NewMem()
			o.FS = fs
			opts := manualOpts(o)
			db, err := Open("db", opts)
			if err != nil {
				t.Fatal(err)
			}
			must := func(err error) {
				t.Helper()
				if err != nil {
					t.Fatal(err)
				}
			}
			// An older table holds the key the memtable deletes, so a
			// dropped tombstone would resurface "old".
			must(db.Put([]byte("t-over-p"), []byte("old")))
			must(db.Flush())

			for i := 0; i < 5; i++ {
				must(db.Put([]byte("hot"), []byte(fmt.Sprintf("v%d", i))))
			}
			must(db.Delete([]byte("p-over-t")))
			must(db.Put([]byte("p-over-t"), []byte("alive")))
			must(db.Put([]byte("t-over-p"), []byte("x")))
			must(db.Delete([]byte("t-over-p")))
			for i := 0; i < 2; i++ {
				suffix := fmt.Sprintf("%d", i)
				must(db.Put([]byte(""), []byte("e"+suffix)))
				must(db.Put([]byte(long), []byte("l"+suffix)))
				must(db.Put([]byte(pfx1), []byte("a"+suffix)))
				must(db.Put([]byte(pfx2), []byte("b"+suffix)))
			}
			must(db.Flush())
			if got := newestL0(t, db).Entries; got != 7 {
				t.Fatalf("flushed table holds %d entries, want 7 (one per user key)", got)
			}

			want := map[string]string{"hot": "v4", "p-over-t": "alive", "": "e1", long: "l1", pfx1: "a1", pfx2: "b1"}
			check := func(db *DB) {
				t.Helper()
				for k, v := range want {
					got, err := db.Get([]byte(k))
					if err != nil || string(got) != v {
						t.Fatalf("Get(%q) = %q, %v; want %q", k, got, err, v)
					}
				}
				if got, err := db.Get([]byte("t-over-p")); err != kv.ErrNotFound {
					t.Fatalf("Get(t-over-p) = %q, %v; want not found", got, err)
				}
				it, err := db.NewIterator()
				if err != nil {
					t.Fatal(err)
				}
				defer it.Close()
				var keys []string
				for it.SeekToFirst(); it.Valid(); it.Next() {
					k := string(it.Key())
					if want[k] != string(it.Value()) {
						t.Fatalf("scan: %q = %q, want %q", k, it.Value(), want[k])
					}
					keys = append(keys, k)
				}
				must(it.Error())
				if len(keys) != len(want) || !sort.StringsAreSorted(keys) {
					t.Fatalf("scan yields %q, want the %d live keys in order", keys, len(want))
				}
			}
			check(db)

			fs.Crash()
			db.Close()
			fs.Restart()
			db2, err := Open("db", opts)
			if err != nil {
				t.Fatal(err)
			}
			defer db2.Close()
			check(db2)
		})
	}
}

// BenchmarkFlush is a minor compaction's inner loop: one 4 MiB memtable of
// 128-byte values, filled once, written to L0 of a fresh DB every iteration
// (opened and closed outside the timer), so a CPU profile shows the flush
// rather than the fill. unique writes every key once; zipf draws from
// 100,000 keys with a zipfian chooser (theta 0.99), so most entries are
// shadowed versions of hot keys that the flush skips.
//
//	go test -run '^$' -bench 'BenchmarkFlush' -benchmem ./internal/lsm
func BenchmarkFlush(b *testing.B) {
	const keySpace, memBytes = 100000, 4 << 20
	// The zipfian CDF over keySpace ranks: rank i has weight 1/(i+1)^0.99
	// (loadgen's chooser would import this package).
	cdf := make([]float64, keySpace)
	sum := 0.0
	for i := range cdf {
		sum += 1 / math.Pow(float64(i+1), 0.99)
		cdf[i] = sum
	}
	choosers := []struct {
		name string
		next func(r *rand.Rand, i int) int
	}{
		{"unique", func(_ *rand.Rand, i int) int { return i }},
		{"zipf", func(r *rand.Rand, _ int) int { return sort.SearchFloat64s(cdf, r.Float64()*sum) }},
	}
	val := make([]byte, 128)
	for _, c := range choosers {
		b.Run(c.name, func(b *testing.B) {
			mem := memtable.New(true, memBytes)
			r := rand.New(rand.NewSource(1))
			for seq := 1; mem.ApproximateSize() < memBytes; seq++ {
				mem.Add(uint64(seq), ikey.KindSet, lookupKey(c.next(r, seq)), val)
			}
			b.ReportAllocs()
			b.ResetTimer()
			var entries int
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				opts := manualOpts(RocksDBOptions(vfs.NewMem()))
				opts.MemTableSize = 64 << 10 // its own memtable stays empty
				db, err := Open("db", opts)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if err := db.doFlush(&memHandle{mem: mem}); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				entries += newestL0(b, db).Entries
				if err := db.Close(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(entries)/float64(b.N), "entries/flush")
		})
	}
}

// TestFlushReleasesMemtable: once a memtable is flushed nothing keeps its
// handle — its arena and the writer of its deleted WAL — reachable. The
// flush queue pops it by reslicing, and its backing array outlives the pop
// until the next rotation: without clearing the slot, a store held a
// flushed memtable's arena and WAL bytes per engine between two flushes.
func TestFlushReleasesMemtable(t *testing.T) {
	db, err := Open("db", RocksDBOptions(vfs.NewMem()))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for i := 0; i < 100; i++ {
		if err := db.Put(lookupKey(i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	released := make(chan struct{})
	db.mu.Lock()
	runtime.SetFinalizer(db.memH, func(*memHandle) { close(released) })
	db.mu.Unlock()
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		runtime.GC()
		select {
		case <-released:
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("the flushed memtable's handle is still reachable after its flush")
}
