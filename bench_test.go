// bench_test.go exposes every paper experiment as a testing.B benchmark
// (sub-benchmarks of BenchmarkExperiment, one per table/figure, mirroring
// DESIGN.md's per-experiment index) plus engine-level micro-benchmarks.
// The experiment benchmarks run the registered experiment in Quick mode
// once per iteration and report the rows to the benchmark log; use
// `dbbench -experiment` for full-budget runs.
package p2kvs_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"sync"
	"testing"

	"p2kvs"
	"p2kvs/internal/arena"
	"p2kvs/internal/bench"
	"p2kvs/internal/bloom"
	"p2kvs/internal/ikey"
	"p2kvs/internal/kv"
	"p2kvs/internal/loadgen"
	"p2kvs/internal/lsm"
	"p2kvs/internal/memtable"
	"p2kvs/internal/skiplist"
	"p2kvs/internal/vfs"
	"p2kvs/internal/wal"
)

// BenchmarkExperiment runs each registered experiment per iteration:
// go test -bench 'Experiment/fig12$'.
func BenchmarkExperiment(b *testing.B) {
	for _, name := range bench.Names() {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tbl, err := bench.Run(name, bench.Env{Quick: true, Out: io.Discard})
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					var sb bytes.Buffer
					tbl.Print(&sb)
					b.Log(sb.String())
				}
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Engine micro-benchmarks (per-op costs, no simulated device)
// ---------------------------------------------------------------------------

func BenchmarkSkiplistInsertConcurrent(b *testing.B) { benchSkiplistInsert(b, skiplist.NewConcurrent) }
func BenchmarkSkiplistInsertBasic(b *testing.B)      { benchSkiplistInsert(b, skiplist.NewBasic) }

// benchSkiplistInsert links b.N ascending 16-byte keys, every trailer 0.
func benchSkiplistInsert(b *testing.B, mk func(*arena.Arena) *skiplist.List) {
	ar := arena.New()
	l := mk(ar)
	refs := make([]arena.Ref, b.N)
	for i := range refs {
		var ik []byte
		ik, refs[i] = ar.Alloc(16 + ikey.TrailerLen)
		copy(ik, fmt.Sprintf("key-%012d", i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Insert(refs[i])
	}
}

// memtableShapes are the key shapes the memtable benchmarks insert, each
// written into dst from a scrambled id. user16 is the repo benchmark's key
// (its first eight bytes barely vary: the abbreviation's second word
// decides); sharedprefix32 keys agree in their first 24 bytes, so every
// comparison ties on the abbreviation and reads the arena; bin8 keys are
// shorter than the abbreviation.
var memtableShapes = []struct {
	name string
	put  func(dst []byte, id uint64) []byte
}{
	{"user16", func(dst []byte, id uint64) []byte {
		dst = append(dst[:0], "user000000000000"...)
		for i := 15; i >= 4; i, id = i-1, id/10 {
			dst[i] = byte('0' + id%10)
		}
		return dst
	}},
	{"sharedprefix32", func(dst []byte, id uint64) []byte {
		return binary.BigEndian.AppendUint64(append(dst[:0], "tenant-0001/object-name/"...), id)
	}},
	{"bin8", func(dst []byte, id uint64) []byte { return binary.BigEndian.AppendUint64(dst[:0], id) }},
}

// memtableFill is how many 16 + 128-byte records fill the engine's default
// 4 MiB write buffer: the benchmarks rotate or stop there, so a descent is
// as deep, and as cold, as the engine's.
const memtableFill = 22500

// memtableBudget is that write buffer's size, which sizes a memtable's filter.
const memtableBudget = 4 << 20

func BenchmarkMemtableAdd(b *testing.B) {
	val := loadgen.Value(1, 0, 128)
	for _, shape := range memtableShapes {
		b.Run(shape.name, func(b *testing.B) {
			var m *memtable.MemTable
			key := make([]byte, 0, 32)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if i%memtableFill == 0 {
					m = memtable.New(true, memtableBudget)
				}
				key = shape.put(key, uint64(i)*0x9E3779B97F4A7C15)
				m.Add(uint64(i+1), ikey.KindSet, key, val)
			}
		})
	}
}

// BenchmarkMemtableGet looks up keys of a full memtable, the probe every
// point lookup makes first, hashing each key as the lookup does: present
// keys, which descend, and absent keys of the same shape, which the
// memtable's filter answers unless it false-positives.
func BenchmarkMemtableGet(b *testing.B) {
	m := memtable.New(true, memtableBudget)
	val := loadgen.Value(1, 0, 128)
	put := memtableShapes[0].put
	key := make([]byte, 0, 16)
	for i := 0; i < memtableFill; i++ {
		key = put(key, uint64(i)*0x9E3779B97F4A7C15)
		m.Add(uint64(i+1), ikey.KindSet, key, val)
	}
	for _, arm := range []struct {
		name    string
		first   uint64 // the ids looked up are first .. first+memtableFill-1
		present bool
	}{{"present", 0, true}, {"absent", memtableFill, false}} {
		b.Run(arm.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				key = put(key, (arm.first+uint64(i%memtableFill))*0x9E3779B97F4A7C15)
				if _, found, _ := m.Get(key, bloom.Hash(key), ikey.MaxSeq); found != arm.present {
					b.Fatalf("key %q: found = %v", key, found)
				}
			}
		})
	}
}

func BenchmarkWALAppendSolo(b *testing.B) {
	fs := vfs.NewMem()
	f, _ := fs.Create("wal")
	w := wal.NewWriter(f, wal.Options{})
	payload := make([]byte, 144)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.Append(0, payload); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(payload)))
}

func BenchmarkLSMPut128(b *testing.B) {
	fs := vfs.NewMem()
	db, err := lsm.Open("db", lsm.RocksDBOptions(fs))
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	val := loadgen.Value(1, 0, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := db.Put(loadgen.Key(uint64(i)), val); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(16 + len(val)))
}

// BenchmarkLSMWriteBatch is the engine half of the write path on its own
// (WAL payload, log append, memtable insert; flushes and compactions run
// behind it): 16-op batches, the size OBM merges on a busy worker. With
// BenchmarkP2KVSPutAsync it is what `make alloc-profile` profiles.
func BenchmarkLSMWriteBatch(b *testing.B) {
	db, err := lsm.Open("db", lsm.RocksDBOptions(vfs.NewMem()))
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	const opsPerBatch = 16
	keys := make([][]byte, opsPerBatch)
	for j := range keys {
		keys[j] = make([]byte, 16)
	}
	val := loadgen.Value(1, 0, 128)
	var batch kv.Batch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch.Reset()
		for j, k := range keys {
			binary.BigEndian.PutUint64(k[8:], uint64(i*opsPerBatch+j)*0x9E3779B97F4A7C15)
			batch.Put(k, val)
		}
		if err := db.Write(&batch); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(opsPerBatch * (16 + len(val))))
}

func BenchmarkLSMGet(b *testing.B) {
	fs := vfs.NewMem()
	db, err := lsm.Open("db", lsm.RocksDBOptions(fs))
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	const n = 100000
	val := loadgen.Value(1, 0, 128)
	for i := 0; i < n; i++ {
		db.Put(loadgen.Key(uint64(i)), val)
	}
	if err := db.Flush(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Get(loadgen.Key(uint64(i % n))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkP2KVSPut(b *testing.B) {
	s, err := p2kvs.Open(p2kvs.Options{Dir: "bench-db", Workers: 4, InMemory: true})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	val := loadgen.Value(1, 0, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Put(loadgen.Key(uint64(i)), val); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(16 + len(val)))
}

func BenchmarkP2KVSPutAsync(b *testing.B) {
	s, err := p2kvs.Open(p2kvs.Options{Dir: "bench-db", Workers: 4, InMemory: true})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	val := loadgen.Value(1, 0, 128)
	keys := make([][]byte, b.N) // a key is the store's until its callback runs
	for i := range keys {
		keys[i] = loadgen.Key(uint64(i))
	}
	var pending sync.WaitGroup
	cb := func(error) { pending.Done() }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pending.Add(1)
		if err := s.PutAsync(keys[i], val, cb); err != nil {
			b.Fatal(err)
		}
	}
	pending.Wait()
	b.SetBytes(int64(16 + len(val)))
}

// getBenchKeys is the key space the Get benchmarks preload and read.
const getBenchKeys = 50000

func openGetBench(b *testing.B) *p2kvs.Store {
	s, err := p2kvs.Open(p2kvs.Options{Dir: "bench-db", Workers: 4, InMemory: true})
	if err != nil {
		b.Fatal(err)
	}
	val := loadgen.Value(1, 0, 128)
	for i := 0; i < getBenchKeys; i++ {
		s.Put(loadgen.Key(uint64(i)), val)
	}
	return s
}

// BenchmarkP2KVSGet is one client's synchronous Get against idle workers:
// every one is a direct read. internal/core's BenchmarkGet sets the queued
// form beside it.
func BenchmarkP2KVSGet(b *testing.B) {
	s := openGetBench(b)
	defer s.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Get(loadgen.Key(uint64(i % getBenchKeys))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkP2KVSGetParallel(b *testing.B) {
	s := openGetBench(b)
	defer s.Close()
	const n = getBenchKeys
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if _, err := s.Get(loadgen.Key(uint64(i % n))); err != nil && err != kv.ErrNotFound {
				b.Fatal(err)
			}
			i++
		}
	})
}
