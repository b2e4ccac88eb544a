package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"p2kvs/internal/btreekv"
	"p2kvs/internal/kv"
	"p2kvs/internal/kvell"
	"p2kvs/internal/lsm"
	"p2kvs/internal/vfs"
	"p2kvs/internal/wal"
)

// lsmFactory builds the RocksDB-preset factory used by most tests.
func lsmFactory(fs vfs.FS, root string) EngineFactory {
	return func(id int, filter func(uint64) bool) (kv.Engine, error) {
		opts := lsm.RocksDBOptions(fs)
		opts.MemTableSize = 32 << 10
		opts.BaseLevelSize = 128 << 10
		opts.TargetFileSize = 32 << 10
		opts.WALSync = wal.PolicyCommit
		return lsm.OpenWith(fmt.Sprintf("%s/inst-%02d", root, id), opts, lsm.OpenOptions{RecoverFilter: filter})
	}
}

func openStore(t *testing.T, fs *vfs.MemFS, workers int) *Store {
	t.Helper()
	opts := DefaultOptions(lsmFactory(fs, "p2"))
	opts.Workers = workers
	opts.TxnFS = fs
	opts.TxnDir = "p2/txn"
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestPutGetDeleteAcrossPartitions(t *testing.T) {
	fs := vfs.NewMem()
	s := openStore(t, fs, 4)
	defer s.Close()
	const n = 500
	for i := 0; i < n; i++ {
		if err := s.Put([]byte(fmt.Sprintf("key-%04d", i)), []byte(fmt.Sprintf("val-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		v, err := s.Get([]byte(fmt.Sprintf("key-%04d", i)))
		if err != nil || string(v) != fmt.Sprintf("val-%d", i) {
			t.Fatalf("Get(%d) = %q %v", i, v, err)
		}
	}
	if _, err := s.Get([]byte("absent")); err != kv.ErrNotFound {
		t.Fatalf("absent err = %v", err)
	}
	s.Delete([]byte("key-0001"))
	if _, err := s.Get([]byte("key-0001")); err != kv.ErrNotFound {
		t.Fatal("delete lost")
	}
	// Every worker should have received some share of 500 uniform keys,
	// through its queue or written by their caller (DirectWrites).
	for _, ws := range s.Stats() {
		if ws.Ops+ws.DirectWrites == 0 {
			t.Fatalf("worker %d received no requests — partitioning broken", ws.ID)
		}
	}
}

func TestAsyncInterface(t *testing.T) {
	fs := vfs.NewMem()
	s := openStore(t, fs, 2)
	defer s.Close()
	const n = 300
	var wg sync.WaitGroup
	errCh := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		key := []byte(fmt.Sprintf("a-%04d", i))
		err := s.PutAsync(key, key, func(err error) {
			if err != nil {
				errCh <- err
			}
			wg.Done()
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	// GetAsync.
	got := make(chan []byte, 1)
	s.GetAsync([]byte("a-0000"), func(v []byte, err error) {
		if err != nil {
			t.Error(err)
		}
		got <- v
	})
	if v := <-got; string(v) != "a-0000" {
		t.Fatalf("async get = %q", v)
	}
	// Async miss surfaces ErrNotFound.
	miss := make(chan error, 1)
	s.GetAsync([]byte("nope"), func(_ []byte, err error) { miss <- err })
	if err := <-miss; err != kv.ErrNotFound {
		t.Fatalf("async miss err = %v", err)
	}
}

func TestOBMFormsBatches(t *testing.T) {
	// Many async writes into few workers must aggregate: batches <
	// ops when OBM is on and the worker is the bottleneck.
	fs := vfs.NewMem()
	opts := DefaultOptions(lsmFactory(fs, "p2"))
	opts.Workers = 1
	opts.TxnFS = fs
	opts.TxnDir = "p2/txn"
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const n = 2000
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		key := []byte(fmt.Sprintf("k-%05d", i))
		if err := s.PutAsync(key, key, func(error) { wg.Done() }); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	ws := s.Stats()[0]
	if ws.Ops != n {
		t.Fatalf("ops = %d", ws.Ops)
	}
	if ws.Batches >= ws.Ops {
		t.Fatalf("OBM formed no batches: %d batches for %d ops", ws.Batches, ws.Ops)
	}
	if ws.BatchedOps == 0 {
		t.Fatal("no ops traveled in batches")
	}
}

func TestOBMDisabledNoBatches(t *testing.T) {
	fs := vfs.NewMem()
	opts := DefaultOptions(lsmFactory(fs, "p2"))
	opts.Workers = 1
	opts.OBM = false
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var wg sync.WaitGroup
	wg.Add(500)
	for i := 0; i < 500; i++ {
		key := []byte(fmt.Sprintf("k-%05d", i))
		s.PutAsync(key, key, func(error) { wg.Done() })
	}
	wg.Wait()
	ws := s.Stats()[0]
	if ws.Batches != ws.Ops {
		t.Fatalf("OBM off but batches (%d) != ops (%d)", ws.Batches, ws.Ops)
	}
}

func TestBatchCapRespected(t *testing.T) {
	fs := vfs.NewMem()
	opts := DefaultOptions(lsmFactory(fs, "p2"))
	opts.Workers = 1
	opts.MaxBatch = 4
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var wg sync.WaitGroup
	wg.Add(1000)
	for i := 0; i < 1000; i++ {
		key := []byte(fmt.Sprintf("k-%05d", i))
		s.PutAsync(key, key, func(error) { wg.Done() })
	}
	wg.Wait()
	ws := s.Stats()[0]
	// 1000 ops with a batch cap of 4 need at least 250 batches.
	if ws.Batches < 250 {
		t.Fatalf("batch cap violated: %d batches for %d ops (max 4/batch)", ws.Batches, ws.Ops)
	}
}

func TestWriteBatchSinglePartition(t *testing.T) {
	fs := vfs.NewMem()
	s := openStore(t, fs, 4)
	defer s.Close()
	// Find two keys on the same worker.
	var k1, k2 []byte
	target := s.opts.Partitioner.Pick([]byte("base"))
	k1 = []byte("base")
	for i := 0; ; i++ {
		k := []byte(fmt.Sprintf("probe-%d", i))
		if s.opts.Partitioner.Pick(k) == target {
			k2 = k
			break
		}
	}
	var b kv.Batch
	b.Put(k1, []byte("1"))
	b.Put(k2, []byte("2"))
	if err := s.Write(&b); err != nil {
		t.Fatal(err)
	}
	if v, _ := s.Get(k1); string(v) != "1" {
		t.Fatal("batch write lost k1")
	}
	if v, _ := s.Get(k2); string(v) != "2" {
		t.Fatal("batch write lost k2")
	}
}

func TestCrossPartitionTransactionCommit(t *testing.T) {
	fs := vfs.NewMem()
	s := openStore(t, fs, 4)
	var b kv.Batch
	for i := 0; i < 20; i++ {
		b.Put([]byte(fmt.Sprintf("txn-%02d", i)), []byte("v"))
	}
	if err := s.Write(&b); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// Crash and recover: committed transaction must survive in full.
	fs.Crash()
	fs.Restart()
	s2 := openStore(t, fs, 4)
	defer s2.Close()
	for i := 0; i < 20; i++ {
		if _, err := s2.Get([]byte(fmt.Sprintf("txn-%02d", i))); err != nil {
			t.Fatalf("committed txn key %d lost: %v", i, err)
		}
	}
}

func TestCrossPartitionTransactionRollback(t *testing.T) {
	// Reproduce Figure 11: a transaction whose WriteBatches were applied
	// on the instances but whose commit record never persisted must be
	// rolled back on every instance at recovery.
	fs := vfs.NewMem()
	s := openStore(t, fs, 4)

	// Committed transaction A.
	var a kv.Batch
	for i := 0; i < 8; i++ {
		a.Put([]byte(fmt.Sprintf("A-%02d", i)), []byte("a"))
	}
	if err := s.Write(&a); err != nil {
		t.Fatal(err)
	}

	// Transaction B: issue begin + instance writes, then sabotage the
	// commit record so it stays volatile, emulating a crash after the
	// instances applied the WriteBatches but before commit persisted.
	gsn := s.gsn.Add(1)
	if err := s.txn.begin(gsn); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		key := []byte(fmt.Sprintf("B-%02d", i))
		w := s.route.Load().pick(key)
		r := &request{typ: reqWrite, ops: []kv.BatchOp{{Kind: kv.OpPut, Key: key, Value: []byte("b")}}, gsn: gsn}
		wg.Add(1)
		r.callback = func(error) { wg.Done() }
		w.q.pushWait(nil, r)
	}
	wg.Wait()
	// All instance writes are durable (WALSync commit), commit never written.
	fs.Crash()
	s.Close() // stop the zombie store (a real crash kills the process)
	fs.Restart()

	s2 := openStore(t, fs, 4)
	defer s2.Close()
	for i := 0; i < 8; i++ {
		if _, err := s2.Get([]byte(fmt.Sprintf("A-%02d", i))); err != nil {
			t.Fatalf("committed txn A key %d lost: %v", i, err)
		}
	}
	for i := 0; i < 8; i++ {
		if _, err := s2.Get([]byte(fmt.Sprintf("B-%02d", i))); err != kv.ErrNotFound {
			t.Fatalf("uncommitted txn B key %d survived rollback: %v", i, err)
		}
	}
}

func TestRangeQuery(t *testing.T) {
	fs := vfs.NewMem()
	s := openStore(t, fs, 4)
	defer s.Close()
	for i := 0; i < 300; i++ {
		s.Put([]byte(fmt.Sprintf("r%04d", i)), []byte(fmt.Sprintf("v%d", i)))
	}
	pairs, err := s.Range([]byte("r0100"), []byte("r0109"))
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 10 {
		t.Fatalf("range returned %d pairs", len(pairs))
	}
	for i, p := range pairs {
		want := fmt.Sprintf("r%04d", 100+i)
		if string(p.Key) != want || string(p.Value) != fmt.Sprintf("v%d", 100+i) {
			t.Fatalf("pair %d = %q/%q", i, p.Key, p.Value)
		}
	}
}

// TestScanBothPaths: ScanCtx fans out one leg per worker when it has the store
// to itself, and walks the merged iterator on the caller beside as many scans
// as workers or beside queued work; both paths read the same pairs, a
// cancelled context ends either, typed, and scans from many goroutines at
// once leave none counted in flight.
// BenchmarkStoreScan is one client's ScanCtx of 10 and of 100 keys over
// eight lsm workers, on each path the store picks between: the fan-out
// (every worker idle; each scan first waits for the last one's legs to
// settle) and the walk of the merged iterator (forced by counting eight
// scans as running already). The engines are compacted before the first
// scan, so no background compaction reshapes the tables under a run.
//
//	go test -run '^$' -bench 'BenchmarkStoreScan' -benchmem ./internal/core
func BenchmarkStoreScan(b *testing.B) {
	const keys, workers = 50000, 8
	key := func(i int) []byte { return []byte(fmt.Sprintf("key-%012d", i)) }
	fs := vfs.NewMem()
	dbs := make([]*lsm.DB, workers)
	opts := DefaultOptions(func(id int, _ func(uint64) bool) (kv.Engine, error) {
		db, err := lsm.Open(fmt.Sprintf("bench/inst-%02d", id), lsm.RocksDBOptions(fs))
		dbs[id] = db
		return db, err
	})
	opts.Workers = workers
	s, err := Open(opts)
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	val := make([]byte, 128)
	probes := make([][]byte, keys)
	for i := range probes {
		probes[i] = key(i)
		if err := s.Put(probes[i], val); err != nil {
			b.Fatal(err)
		}
	}
	for _, db := range dbs {
		if err := db.CompactAll(); err != nil {
			b.Fatal(err)
		}
	}
	for _, path := range []string{"walk", "fan-out"} {
		for _, n := range []int{10, 100} {
			b.Run(fmt.Sprintf("path=%s/n=%d", path, n), func(b *testing.B) {
				if path == "walk" {
					s.scans.Add(workers)
					defer s.scans.Add(-workers)
				}
				rt := s.route.Load()
				x := uint64(88172645463325252)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					x ^= x << 13
					x ^= x >> 7
					x ^= x << 17
					for path == "fan-out" && !rt.idle() {
						runtime.Gosched()
					}
					if pairs, err := s.Scan(probes[x%uint64(keys-n)], n); err != nil || len(pairs) != n {
						b.Fatalf("scan returned %d pairs, %v", len(pairs), err)
					}
				}
			})
		}
	}
}

func TestScanBothPaths(t *testing.T) {
	s := openStore(t, vfs.NewMem(), 4)
	defer s.Close()
	for i := 0; i < 300; i++ {
		s.Put([]byte(fmt.Sprintf("s%04d", i)), []byte("v"))
	}
	ops := func() (n int64) {
		for _, ws := range s.Stats() {
			n += ws.Ops
		}
		return n
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	settle := func() { // a worker decrements pending after it answers
		for !s.route.Load().idle() {
			time.Sleep(100 * time.Microsecond)
		}
	}
	check := func(path string, legs int64) {
		t.Helper()
		if legs > 0 {
			settle()
		}
		before := ops()
		pairs, err := s.Scan([]byte("s0050"), 25)
		if err != nil || len(pairs) != 25 {
			t.Fatalf("%s: scan returned %d pairs, %v", path, len(pairs), err)
		}
		for i, p := range pairs {
			if want := fmt.Sprintf("s%04d", 50+i); string(p.Key) != want {
				t.Fatalf("%s: pair %d = %q, want %q", path, i, p.Key, want)
			}
		}
		if got := ops() - before; got != legs {
			t.Fatalf("%s: workers ran %d scan legs, want %d", path, got, legs)
		}
		if legs > 0 {
			settle()
		}
		if _, err := s.ScanCtx(cancelled, []byte("s0050"), 25); !errors.Is(err, kv.ErrDeadlineExceeded) || !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: scan under a cancelled context: err = %v, want ErrDeadlineExceeded wrapping context.Canceled", path, err)
		}
	}
	check("fan-out", 4)
	s.scans.Add(4)
	check("beside four scans", 0)
	s.scans.Add(-4)
	check("fan-out again", 4)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if g == 0 { // writes past the scanned range keep workers busy
					s.Put([]byte(fmt.Sprintf("t%04d", i)), []byte("v"))
					continue
				}
				if pairs, err := s.Scan([]byte("s0050"), 25); err != nil || len(pairs) != 25 || string(pairs[24].Key) != "s0074" {
					t.Errorf("concurrent scan: %d pairs, %v", len(pairs), err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if n := s.scans.Load(); n != 0 {
		t.Fatalf("%d scans still counted in flight", n)
	}
	// Park worker 0: the scan must not queue behind it.
	parked, release := make(chan struct{}), make(chan struct{})
	defer close(release)
	go s.ws()[0].do(func(*worker) error { close(parked); <-release; return nil })
	<-parked
	check("beside queued work", 0)
}

func TestGlobalIterator(t *testing.T) {
	fs := vfs.NewMem()
	s := openStore(t, fs, 3)
	defer s.Close()
	const n = 200
	for i := 0; i < n; i++ {
		s.Put([]byte(fmt.Sprintf("g%04d", i)), []byte("v"))
	}
	it, err := s.NewIterator()
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	count, prev := 0, ""
	for it.SeekToFirst(); it.Valid(); it.Next() {
		k := string(it.Key())
		if prev != "" && k <= prev {
			t.Fatalf("global iterator out of order: %q after %q", k, prev)
		}
		prev = k
		count++
	}
	if count != n {
		t.Fatalf("iterated %d, want %d", count, n)
	}
	it.Seek([]byte("g0150"))
	if !it.Valid() || string(it.Key()) != "g0150" {
		t.Fatalf("Seek landed on %q", it.Key())
	}
}

// portabilityFactories opens one store per engine family (§4.6): the
// RocksDB preset, the LevelDB preset, the WiredTiger-style engine (no batch
// caps), and the KVell-style engine.
var portabilityFactories = map[string]func(fs *vfs.MemFS) EngineFactory{
	"rocksdb": func(fs *vfs.MemFS) EngineFactory { return lsmFactory(fs, "px") },
	"leveldb": func(fs *vfs.MemFS) EngineFactory {
		return func(id int, filter func(uint64) bool) (kv.Engine, error) {
			opts := lsm.LevelDBOptions(fs)
			opts.MemTableSize = 32 << 10
			return lsm.OpenWith(fmt.Sprintf("px/inst-%02d", id), opts, lsm.OpenOptions{RecoverFilter: filter})
		}
	},
	"wiredtiger": func(fs *vfs.MemFS) EngineFactory {
		return func(id int, _ func(uint64) bool) (kv.Engine, error) {
			return btreekv.Open(fmt.Sprintf("px/wt-%02d", id), btreekv.Options{FS: fs, CheckpointBytes: 32 << 10})
		}
	},
	"kvell": func(fs *vfs.MemFS) EngineFactory {
		return func(id int, _ func(uint64) bool) (kv.Engine, error) {
			return kvell.Open(fmt.Sprintf("px/kv-%02d", id), kvell.Options{FS: fs, Workers: 1})
		}
	},
}

// TestPortabilityMatrix runs the same workload over p2KVS on all four
// engine families.
func TestPortabilityMatrix(t *testing.T) {
	for name, mk := range portabilityFactories {
		t.Run(name, func(t *testing.T) {
			fs := vfs.NewMem()
			opts := DefaultOptions(mk(fs))
			opts.Workers = 3
			s, err := Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			var wg sync.WaitGroup
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < 100; i++ {
						key := []byte(fmt.Sprintf("p%d-%04d", g, i))
						if err := s.Put(key, key); err != nil {
							t.Error(err)
							return
						}
					}
				}(g)
			}
			wg.Wait()
			for g := 0; g < 4; g++ {
				for i := 0; i < 100; i += 9 {
					key := []byte(fmt.Sprintf("p%d-%04d", g, i))
					v, err := s.Get(key)
					if err != nil || string(v) != string(key) {
						t.Fatalf("Get(%s) = %q %v", key, v, err)
					}
				}
			}
			pairs, err := s.Scan([]byte("p1-"), 10)
			if err != nil || len(pairs) != 10 {
				t.Fatalf("scan = %d pairs, %v", len(pairs), err)
			}
		})
	}
}

// TestEmptyValueIsPresent: a key stored with an empty value is a present key
// on every path that spells "absent" as a nil slice — a read run OBM merged
// into an engine multiget, MultiGet's slots, hot-cache hits — on all four
// engine families, cache on and off.
func TestEmptyValueIsPresent(t *testing.T) {
	for name, mk := range portabilityFactories {
		for _, cacheBytes := range []int64{0, 1 << 20} {
			t.Run(fmt.Sprintf("%s/cache=%d", name, cacheBytes), func(t *testing.T) {
				opts := DefaultOptions(mk(vfs.NewMem()))
				opts.Workers = 1 // every read queues behind the others: runs merge
				opts.HotCacheBytes = cacheBytes
				s, err := Open(opts)
				if err != nil {
					t.Fatal(err)
				}
				defer s.Close()
				k := []byte("empty")
				if err := s.Put(k, []byte{}); err != nil {
					t.Fatal(err)
				}
				var wg sync.WaitGroup
				for g := 0; g < 8; g++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for i := 0; i < 250; i++ {
							if v, err := s.Get(k); err != nil || v == nil || len(v) != 0 {
								t.Errorf("Get = %q (nil %v), %v, want a present empty value", v, v == nil, err)
								return
							}
						}
					}()
				}
				wg.Wait()
				for round := 0; round < 2; round++ { // the second round meets the cache's fills
					vals, err := s.MultiGet([][]byte{k, []byte("absent"), k})
					if err != nil || vals[0] == nil || vals[1] != nil || vals[2] == nil {
						t.Fatalf("MultiGet = %q (nil %v %v %v), %v, want present, absent, present",
							vals, vals[0] == nil, vals[1] == nil, vals[2] == nil, err)
					}
				}
			})
		}
	}
}

// TestWorkerBusyTime: BusyUs counts the time a worker goroutine spends
// executing what it dequeued, and only that worker's.
func TestWorkerBusyTime(t *testing.T) {
	s := openStore(t, vfs.NewMem(), 4)
	defer s.Close()
	const nap = 20 * time.Millisecond
	if err := s.ws()[1].do(func(*worker) error { time.Sleep(nap); return nil }); err != nil {
		t.Fatal(err)
	}
	// The worker adds the batch's time after it has woken the submitter.
	var snap StatsSnapshot
	for deadline := time.Now().Add(time.Second); ; time.Sleep(time.Millisecond) {
		if snap = s.StatsSnapshot(); snap.PerWorker[1].BusyUs >= nap.Microseconds() || time.Now().After(deadline) {
			break
		}
	}
	for _, st := range snap.PerWorker {
		if st.ID == 1 && st.BusyUs < nap.Microseconds() || st.ID != 1 && st.BusyUs >= 2000 {
			t.Errorf("worker %d: BusyUs = %d after a %v closure on worker 1", st.ID, st.BusyUs, nap)
		}
	}
	if snap.Aggregate.BusyUs < nap.Microseconds() {
		t.Errorf("aggregate BusyUs = %d", snap.Aggregate.BusyUs)
	}
}

func TestClosedStore(t *testing.T) {
	fs := vfs.NewMem()
	s := openStore(t, fs, 2)
	s.Put([]byte("k"), []byte("v"))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal("double close must be nil")
	}
	if err := s.Put([]byte("a"), []byte("b")); err != kv.ErrClosed {
		t.Fatalf("Put after close = %v", err)
	}
	if _, err := s.Get([]byte("k")); err != kv.ErrClosed {
		t.Fatalf("Get after close = %v", err)
	}
	if err := s.PutAsync([]byte("a"), []byte("b"), nil); err != kv.ErrClosed {
		t.Fatalf("PutAsync after close = %v", err)
	}
}

func TestQuickStoreAgainstMap(t *testing.T) {
	type op struct {
		Key    uint8
		Val    uint16
		Delete bool
	}
	fn := func(ops []op) bool {
		fs := vfs.NewMem()
		opts := DefaultOptions(lsmFactory(fs, "q"))
		opts.Workers = 3
		opts.TxnFS = fs
		opts.TxnDir = "q/txn"
		s, err := Open(opts)
		if err != nil {
			return false
		}
		defer s.Close()
		model := map[string]string{}
		for _, o := range ops {
			k := fmt.Sprintf("key-%03d", o.Key%64)
			if o.Delete {
				delete(model, k)
				if s.Delete([]byte(k)) != nil {
					return false
				}
			} else {
				v := fmt.Sprintf("v-%d", o.Val)
				model[k] = v
				if s.Put([]byte(k), []byte(v)) != nil {
					return false
				}
			}
		}
		for k, want := range model {
			v, err := s.Get([]byte(k))
			if err != nil || string(v) != want {
				return false
			}
		}
		// A full scan agrees with the model size.
		pairs, err := s.Scan(nil, 1<<20)
		return err == nil && len(pairs) == len(model)
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestQueuePeekSemantics(t *testing.T) {
	q := newReqQueue(16)
	mk := func(typ reqType) *request {
		return &request{typ: typ, done: make(chan struct{})}
	}
	q.pushWait(nil, mk(reqWrite))
	q.pushWait(nil, mk(reqWrite))
	q.pushWait(nil, mk(reqRead)) // type switch: must cut the batch
	q.pushWait(nil, mk(reqWrite))

	batch, _ := q.popBatch(true, 32, nil, nil)
	if len(batch) != 2 || batch[0].typ != reqWrite {
		t.Fatalf("first batch = %d reqs", len(batch))
	}
	batch, _ = q.popBatch(true, 32, nil, nil)
	if len(batch) != 1 || batch[0].typ != reqRead {
		t.Fatalf("second batch = %d of type %v", len(batch), batch[0].typ)
	}
	batch, _ = q.popBatch(true, 32, nil, nil)
	if len(batch) != 1 || batch[0].typ != reqWrite {
		t.Fatalf("third batch = %d", len(batch))
	}
	// A closure between two writes splits the run, and two closures never
	// merge with each other.
	q.pushWait(nil, mk(reqWrite))
	q.pushWait(nil, mk(reqRun))
	q.pushWait(nil, mk(reqRun))
	q.pushWait(nil, mk(reqWrite))
	for i, want := range []reqType{reqWrite, reqRun, reqRun, reqWrite} {
		if batch, _ = q.popBatch(true, 32, nil, nil); len(batch) != 1 || batch[0].typ != want {
			t.Fatalf("closure split, batch %d = %d of type %v, want 1 of %v", i, len(batch), batch[0].typ, want)
		}
	}
	// A transaction leg (gsn != 0) stays alone between mergeable writes.
	leg := mk(reqWrite)
	leg.gsn = 7
	for _, r := range []*request{mk(reqWrite), leg, mk(reqWrite)} {
		q.pushWait(nil, r)
	}
	for i, want := range []uint64{0, 7} {
		if batch, _ = q.popBatch(true, 32, nil, nil); len(batch) != 1 || batch[0].gsn != want {
			t.Fatalf("transaction leg, batch %d = %d with gsn %d, want 1 with %d", i, len(batch), batch[0].gsn, want)
		}
	}
	// Closed queue drains then returns nil.
	q.close()
	if got, _ := q.popBatch(true, 32, nil, nil); len(got) != 1 {
		t.Fatalf("drain after close = %d", len(got))
	}
	if got, expired := q.popBatch(true, 32, nil, nil); got != nil || expired != nil {
		t.Fatal("closed empty queue must return nil")
	}
	if q.pushWait(nil, mk(reqWrite)) == nil {
		t.Fatal("push on closed queue must fail")
	}
}

func TestStoreMultiGet(t *testing.T) {
	fs := vfs.NewMem()
	s := openStore(t, fs, 4)
	defer s.Close()
	for i := 0; i < 200; i++ {
		s.Put([]byte(fmt.Sprintf("mg-%03d", i)), []byte(fmt.Sprintf("v%d", i)))
	}
	keys := [][]byte{
		[]byte("mg-000"), []byte("absent"), []byte("mg-199"), []byte("mg-042"),
	}
	vals, err := s.MultiGet(keys)
	if err != nil {
		t.Fatal(err)
	}
	if string(vals[0]) != "v0" || vals[1] != nil || string(vals[2]) != "v199" || string(vals[3]) != "v42" {
		t.Fatalf("MultiGet = %q", vals)
	}
	// Large batch spanning all workers.
	big := make([][]byte, 200)
	for i := range big {
		big[i] = []byte(fmt.Sprintf("mg-%03d", i))
	}
	vals, err = s.MultiGet(big)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vals {
		if string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("MultiGet[%d] = %q", i, v)
		}
	}
	s.Close()
	if _, err := s.MultiGet(keys); err != kv.ErrClosed {
		t.Fatalf("MultiGet after close = %v", err)
	}
}

func TestRangeEmptyAndSingleKey(t *testing.T) {
	fs := vfs.NewMem()
	s := openStore(t, fs, 3)
	defer s.Close()
	s.Put([]byte("only"), []byte("v"))
	// Empty range.
	pairs, err := s.Range([]byte("x"), []byte("y"))
	if err != nil || len(pairs) != 0 {
		t.Fatalf("empty range = %v, %v", pairs, err)
	}
	// Single-key inclusive range.
	pairs, err = s.Range([]byte("only"), []byte("only"))
	if err != nil || len(pairs) != 1 || string(pairs[0].Value) != "v" {
		t.Fatalf("single range = %v, %v", pairs, err)
	}
	// Scan with n <= 0.
	pairs, err = s.Scan([]byte("a"), 0)
	if err != nil || pairs != nil {
		t.Fatalf("zero scan = %v, %v", pairs, err)
	}
}

func TestAsyncBackpressure(t *testing.T) {
	// A tiny queue must block (not drop or error) excess async submits.
	fs := vfs.NewMem()
	opts := DefaultOptions(lsmFactory(fs, "bp"))
	opts.Workers = 1
	opts.QueueDepth = 4
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var done sync.WaitGroup
	const n = 500
	done.Add(n)
	for i := 0; i < n; i++ {
		key := []byte(fmt.Sprintf("bp-%04d", i))
		if err := s.PutAsync(key, key, func(error) { done.Done() }); err != nil {
			t.Fatal(err)
		}
	}
	done.Wait()
	if ws := s.Stats()[0]; ws.Ops != n {
		t.Fatalf("ops = %d, want %d", ws.Ops, n)
	}
}
