package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"p2kvs/internal/kv"
	"p2kvs/internal/vfs"
)

// TestHotCacheHitsBypassQueues proves the tentpole property: a cached
// GET is served without queue admission or a worker round-trip. With the
// hot shard wedged and its queue full under AdmitReject, an uncached
// read bounces with ErrOverloaded — but reads of warmed keys keep
// succeeding, and the engine's read counter never moves.
func TestHotCacheHitsBypassQueues(t *testing.T) {
	gate := make(chan struct{})
	s, engines := openStubStore(t, 1, map[int]chan struct{}{0: gate}, func(o *Options) {
		o.QueueDepth = 4
		o.Admission = AdmitReject
		o.HotCacheBytes = 1 << 20
		o.DrainTimeout = 2 * time.Second
	})
	defer func() {
		s.Close()
	}()

	// Seed the engine directly (stub writes are gated, reads are not) and
	// warm the cache through the normal read path.
	engines[0].mu.Lock()
	engines[0].data[string(shardKey(0, 1))] = "hot-value"
	engines[0].mu.Unlock()
	if v, err := s.Get(shardKey(0, 1)); err != nil || string(v) != "hot-value" {
		t.Fatalf("warmup get = %q, %v", v, err)
	}
	if _, err := s.Get(shardKey(0, 2)); !errors.Is(err, kv.ErrNotFound) {
		t.Fatalf("warmup absent get err = %v", err)
	}
	getsBefore := engines[0].gets.Load()

	// Wedge the worker and fill the queue so admission rejects.
	var acks sync.WaitGroup
	acks.Add(1)
	if err := s.PutAsync(shardKey(0, 50), []byte("v"), func(error) { acks.Done() }); err != nil {
		t.Fatal(err)
	}
	waitWedged(t, engines[0], 1)
	for i := 0; i < 16; i++ {
		acks.Add(1)
		if err := s.PutAsync(shardKey(0, 100+i), []byte("v"), func(error) { acks.Done() }); err != nil {
			acks.Done()
		}
	}
	if _, err := s.Get(shardKey(0, 3)); !errors.Is(err, kv.ErrOverloaded) {
		t.Fatalf("uncached get on saturated shard err = %v, want ErrOverloaded", err)
	}

	// Cached positive and negative reads are served anyway — through
	// every read interface.
	for i := 0; i < 10; i++ {
		if v, err := s.Get(shardKey(0, 1)); err != nil || string(v) != "hot-value" {
			t.Fatalf("cached get = %q, %v", v, err)
		}
		if _, err := s.Get(shardKey(0, 2)); !errors.Is(err, kv.ErrNotFound) {
			t.Fatalf("cached negative get err = %v", err)
		}
	}
	var asyncV []byte
	var asyncErr error
	if err := s.GetAsync(shardKey(0, 1), func(v []byte, err error) { asyncV, asyncErr = v, err }); err != nil {
		t.Fatal(err)
	}
	if asyncErr != nil || string(asyncV) != "hot-value" {
		t.Fatalf("cached async get = %q, %v", asyncV, asyncErr)
	}
	if out, err := s.MultiGet([][]byte{shardKey(0, 1), shardKey(0, 2)}); err != nil {
		t.Fatalf("cached multiget: %v", err)
	} else if string(out[0]) != "hot-value" || out[1] != nil {
		t.Fatalf("cached multiget = %q, %q", out[0], out[1])
	}
	if got := engines[0].gets.Load(); got != getsBefore {
		t.Fatalf("engine reads moved %d -> %d; cached reads touched the worker", getsBefore, got)
	}

	snap := s.StatsSnapshot()
	if !snap.CacheEnabled || snap.CacheHits == 0 || snap.CacheNegHits == 0 {
		t.Fatalf("cache counters: %+v", snap)
	}

	close(gate)
	acks.Wait()
}

// TestHotCacheWriteThrough: a write to a resident key rewrites the cached
// entry, so the read after it is a hit with the new value — through every
// write form, a merged run and a batch that repeat the key included. The
// engine answers "v" to every read, so any other value came from the cache.
func TestHotCacheWriteThrough(t *testing.T) {
	eng := newGatedNop(false)
	opts := DefaultOptions(func(int, func(uint64) bool) (kv.Engine, error) { return eng, nil })
	opts.Workers, opts.HotCacheBytes = 1, 1<<20
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	release := sync.OnceFunc(func() { close(eng.gate) })
	defer release() // before Close: the worker may be parked on the gate

	k := []byte("k")
	if v, err := s.Get(k); err != nil || string(v) != "v" { // the one miss: k is resident from here on
		t.Fatalf("warmup get = %q, %v", v, err)
	}
	misses := s.StatsSnapshot().CacheMisses
	hit := func(after, want string) {
		t.Helper()
		v, err := s.Get(k)
		if want == "" && !errors.Is(err, kv.ErrNotFound) || want != "" && (err != nil || string(v) != want) {
			t.Fatalf("get after %s = %q, %v; want %q", after, v, err, want)
		}
		if got := s.StatsSnapshot().CacheMisses; got != misses {
			t.Fatalf("get after %s missed the cache (misses %d -> %d)", after, misses, got)
		}
	}

	// One merged run: the worker is parked in the engine while four async
	// writes queue behind it, three of them to k.
	var acks sync.WaitGroup
	ack := func(err error) {
		if err != nil {
			t.Error(err)
		}
		acks.Done()
	}
	acks.Add(5)
	if err := s.PutAsync([]byte("parks-the-worker"), []byte("x"), ack); err != nil {
		t.Fatal(err)
	}
	<-eng.entered
	for _, err := range []error{
		s.PutAsync(k, []byte("a"), ack),
		s.PutAsync(k, []byte("a2"), ack),
		s.PutAsync([]byte("cold"), []byte("b"), ack),
		s.PutAsync(k, []byte("c"), ack),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	release()
	acks.Wait()
	if st := s.Stats()[0]; st.BatchedOps != 4 {
		t.Fatalf("the four queued writes ran as %d batched ops, want one merged run", st.BatchedOps)
	}
	hit("a merged async run", "c")

	if err := s.Put(k, []byte("d")); err != nil {
		t.Fatal(err)
	}
	hit("Put", "d")
	if err := s.Delete(k); err != nil {
		t.Fatal(err)
	}
	hit("Delete", "") // a negative hit
	if err := s.Put(k, []byte("e")); err != nil {
		t.Fatal(err)
	}
	hit("Put over a negative entry", "e")
	var b kv.Batch
	b.Put(k, []byte("f"))
	b.Delete(k)
	b.Put(k, []byte("a longer value than any before it"))
	if err := s.Write(&b); err != nil {
		t.Fatal(err)
	}
	hit("a batch that repeats the key", "a longer value than any before it")

	// 11 keys written, 10 of them k; "cold" was never read, so it stayed out.
	snap := s.StatsSnapshot()
	if snap.CacheInvalidations != 11 || snap.CacheUpdates != 9 || snap.CacheEntries != 1 {
		t.Fatalf("invalidations %d, updates %d, entries %d; want 11, 9, 1",
			snap.CacheInvalidations, snap.CacheUpdates, snap.CacheEntries)
	}
}

// TestHotCacheTxnLegsWriteThrough: the legs of a cross-partition batch are
// data-plane writes like any other.
func TestHotCacheTxnLegsWriteThrough(t *testing.T) {
	s, _ := openStubStore(t, 2, nil, func(o *Options) {
		o.HotCacheBytes = 1 << 20
		o.TxnFS = vfs.NewMem() // cross-partition batches need the GSN log
		o.TxnDir = "txn"
	})
	defer s.Close()
	k, k2 := shardKey(0, 1), shardKey(1, 1)
	for _, key := range [][]byte{k, k2} { // resident, as negative entries
		if _, err := s.Get(key); !errors.Is(err, kv.ErrNotFound) {
			t.Fatalf("warmup get err = %v", err)
		}
	}
	misses := s.StatsSnapshot().CacheMisses
	var b kv.Batch
	b.Put(k, []byte("b1"))
	b.Put(k2, []byte("b2"))
	if err := s.Write(&b); err != nil {
		t.Fatal(err)
	}
	if v, err := s.Get(k); err != nil || string(v) != "b1" {
		t.Fatalf("get k after batch = %q, %v", v, err)
	}
	if v, err := s.Get(k2); err != nil || string(v) != "b2" {
		t.Fatalf("get k2 after batch = %q, %v", v, err)
	}
	if snap := s.StatsSnapshot(); snap.CacheMisses != misses || snap.CacheUpdates != 2 {
		t.Fatalf("misses %d -> %d, updates %d; want both reads hits on rewritten entries", misses, snap.CacheMisses, snap.CacheUpdates)
	}
}

// TestHotCacheGrowDropsMovedKeys: a grow's cleanup deletes the moved keys from
// their old owners through the same queue writes take. Those keys live on
// under their new owner: the cache must forget them, not learn the deletes.
func TestHotCacheGrowDropsMovedKeys(t *testing.T) {
	s := openElastic(t, vfs.NewMem(), "hc", 3)
	defer s.Close()
	const n = 500
	key := func(i int) []byte { return []byte(fmt.Sprintf("key-%05d", i)) }
	for i := 0; i < n; i++ {
		if err := s.Put(key(i), []byte("v")); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Get(key(i)); err != nil { // resident
			t.Fatal(err)
		}
	}
	if err := s.Reshard(context.Background(), 5); err != nil {
		t.Fatal(err)
	}
	dropped := 0
	for i := 0; i < n; i++ {
		v, neg, ok := s.cache.Get(key(i))
		switch {
		case !ok:
			dropped++
		case neg || string(v) != "v":
			t.Fatalf("after the grow the cache holds %q (negative=%v) for live key %s", v, neg, key(i))
		}
		if v, err := s.Get(key(i)); err != nil || string(v) != "v" {
			t.Fatalf("Get(%s) after the grow = %q, %v", key(i), v, err)
		}
	}
	if moved := s.ReshardStats().MovedKeys; dropped == 0 || int64(dropped) != moved {
		t.Fatalf("%d resident keys dropped, %d keys moved; want every moved key dropped and no other", dropped, moved)
	}
}

// TestHotCacheControlWriteRunsAlone: a control-plane write (worker.do) queued
// right behind a client write does not merge with it. The client write
// rewrites its resident entry; the control write drops its own key, which
// its worker may not own.
func TestHotCacheControlWriteRunsAlone(t *testing.T) {
	eng := newGatedNop(false)
	opts := DefaultOptions(func(int, func(uint64) bool) (kv.Engine, error) { return eng, nil })
	opts.Workers, opts.HotCacheBytes = 1, 1<<20
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	release := sync.OnceFunc(func() { close(eng.gate) })
	defer release() // before Close: the worker may be parked on the gate

	client, control := []byte("client"), []byte("control")
	for _, k := range [][]byte{client, control} {
		if _, err := s.Get(k); err != nil { // resident
			t.Fatal(err)
		}
	}
	var acks sync.WaitGroup
	acks.Add(2)
	ack := func(err error) {
		if err != nil {
			t.Error(err)
		}
		acks.Done()
	}
	if err := s.PutAsync([]byte("parks-the-worker"), []byte("x"), ack); err != nil {
		t.Fatal(err)
	}
	<-eng.entered
	if err := s.PutAsync(client, []byte("new"), ack); err != nil {
		t.Fatal(err)
	}
	w := s.ws()[0]
	done := make(chan error, 1)
	go func() {
		done <- w.do(func(w *worker) error {
			return w.commit([]kv.BatchOp{{Kind: kv.OpDelete, Key: control}}, 0, 0, true)
		})
	}()
	for w.q.pending.Load() != 3 { // the parked write, the client write, the closure
		runtime.Gosched()
	}
	release()
	acks.Wait()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if v, neg, ok := s.cache.Get(client); !ok || neg || string(v) != "new" {
		t.Errorf("after the client write the cache holds %q (negative=%v, resident=%v), want \"new\"", v, neg, ok)
	}
	if v, neg, ok := s.cache.Get(control); ok {
		t.Errorf("after the control write the cache still holds %q (negative=%v), want it dropped", v, neg)
	}
}

// TestHotCacheFenceSchedule replays on one worker, step by step, the
// schedule a direct write's fence exists for: reader B's engine read returns
// the old value and is held before B fills the cache; a write applies and is
// held before its write-through; reader A misses, reads the new value from
// the engine and returns; B's fill is released. A's next Get must not return
// the old value: the fence rejects B's fill (its ticket predates the fence)
// and hides the key until the write-through. A queued write (PutAsync) takes
// no fence, and the same schedule — A's engine read entered before the write
// is queued, else A would queue behind it — still reads the old value back:
// inside DESIGN §14's contract (no hit older than the last acknowledged
// write), but A's reads go backwards. That case pins the hole until a fix
// flips it.
func TestHotCacheFenceSchedule(t *testing.T) {
	for _, c := range []struct {
		name  string
		async bool
		want  string // A's second read
	}{{"Put", false, "new"}, {"PutAsync", true, "old"}} {
		t.Run(c.name, func(t *testing.T) {
			eng := newHeldNop([]byte("old"))
			opts := DefaultOptions(func(int, func(uint64) bool) (kv.Engine, error) { return eng, nil })
			opts.Workers, opts.HotCacheBytes = 1, 1<<20
			s, err := Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			k := []byte("k")
			get := func() chan []byte {
				ch := make(chan []byte, 1)
				go func() {
					v, err := s.Get(k)
					if err != nil {
						t.Error(err)
					}
					ch <- v
				}()
				return ch
			}
			recv := func(ch chan []byte, who string) string {
				t.Helper()
				select {
				case v := <-ch:
					return string(v)
				case <-time.After(5 * time.Second):
					t.Fatalf("%s never returned", who)
					return ""
				}
			}
			releaseB := eng.hold(holdGetExit) // 1
			defer releaseB()
			b := get()
			<-eng.entered
			var a chan []byte
			releaseA := func() {}
			if c.async {
				releaseA = eng.hold(holdGetEntry)
				a = get()
				<-eng.entered
			}
			releaseW := eng.hold(holdApplied) // 2
			defer releaseW()
			wrote := make(chan error, 1)
			if c.async {
				if err := s.PutAsync(k, []byte("new"), func(err error) { wrote <- err }); err != nil {
					t.Fatal(err)
				}
			} else {
				go func() { wrote <- s.Put(k, []byte("new")) }()
			}
			<-eng.entered
			if !c.async { // 3
				a = get()
			}
			releaseA()
			if v := recv(a, "A's first Get"); v != "new" {
				t.Fatalf("A's first Get = %q, want the applied \"new\"", v)
			}
			releaseB() // 4
			if v := recv(b, "B's Get"); v != "old" {
				t.Fatalf("B's Get = %q, want \"old\"", v)
			}
			second := get() // 5: served at once, or queued behind the write
			for start := time.Now(); len(second) == 0 && s.ws()[0].q.pending.Load() < 2; runtime.Gosched() {
				if time.Since(start) > 5*time.Second {
					t.Fatal("A's second Get neither returned nor queued")
				}
			}
			releaseW()
			if v := recv(second, "A's second Get"); v != c.want {
				t.Errorf("A's second Get = %q after its first read %q; want %q", v, "new", c.want)
			}
			if err := <-wrote; err != nil {
				t.Fatal(err)
			}
			if v := recv(get(), "the Get after the write"); v != "new" {
				t.Errorf("after the write-through Get = %q, want \"new\"", v)
			}
		})
	}
}

// TestHotCacheFailedWriteDrops: a write the engine failed may have partially
// applied, so its keys leave the cache — nothing is installed from it.
func TestHotCacheFailedWriteDrops(t *testing.T) {
	ffs := vfs.NewFault(vfs.NewMem())
	opts := DefaultOptions(faultLSMFactory(ffs, "p2"))
	opts.Workers, opts.HotCacheBytes = 1, 1<<20
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	k := []byte("k")
	if err := s.Put(k, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if v, err := s.Get(k); err != nil || string(v) != "v1" { // resident
		t.Fatalf("warmup get = %q, %v", v, err)
	}
	ffs.Inject(vfs.Rule{Op: vfs.OpWrite, Path: ".log", CountN: 1, TornWrite: true})
	if err := s.Put(k, []byte("v2")); err == nil {
		t.Fatal("put over a torn WAL write succeeded")
	}
	if v, neg, ok := s.cache.Get(k); ok {
		t.Fatalf("after a failed write the cache still serves %q (negative=%v)", v, neg)
	}
	if v, err := s.Get(k); err != nil || string(v) != "v1" {
		t.Fatalf("get after the failed write = %q, %v; want the engine's v1", v, err)
	}
}

// TestMultiGetAdmitShortCircuit is the regression test for admission
// amplification: when the first leg of a multiget or of a transaction is
// rejected, the remaining legs must not be pushed at the saturated queue, nor
// at the other workers' — a transaction's would be applied uncommitted, for
// recovery to roll back. A cross-partition WriteCtx over three workers whose
// first queue is full is refused with one rejection, and the workers after
// it execute nothing.
func TestMultiGetAdmitShortCircuit(t *testing.T) {
	const workers = 3
	for _, c := range []struct {
		name string
		op   func(s *Store) error
	}{
		{"MultiGetCtx", func(s *Store) error {
			keys := make([][]byte, 16)
			for i := range keys {
				keys[i] = shardKey(0, i)
			}
			_, err := s.MultiGetCtx(nil, keys)
			return err
		}},
		{"WriteCtx/transaction", func(s *Store) error {
			var b kv.Batch
			for shard := 0; shard < workers; shard++ {
				b.Put(shardKey(shard, 0), []byte("v"))
			}
			return s.WriteCtx(nil, &b)
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			gate := make(chan struct{})
			s, engines := openStubStore(t, workers, map[int]chan struct{}{0: gate}, func(o *Options) {
				o.QueueDepth = 4
				o.Admission = AdmitReject
				o.DrainTimeout = 2 * time.Second
				o.TxnFS, o.TxnDir = vfs.NewMem(), "txn"
			})
			defer s.Close()

			// Wedge shard 0 and fill its queue to capacity.
			var acks sync.WaitGroup
			acks.Add(1)
			if err := s.PutAsync(shardKey(0, 50), []byte("v"), func(error) { acks.Done() }); err != nil {
				t.Fatal(err)
			}
			waitWedged(t, engines[0], 1)
			for i := 0; ; i++ {
				acks.Add(1)
				if err := s.PutAsync(shardKey(0, 100+i), []byte("v"), func(error) { acks.Done() }); err != nil {
					acks.Done()
					break // queue full
				}
			}

			before := s.Stats()
			if err := c.op(s); !errors.Is(err, kv.ErrOverloaded) {
				t.Fatalf("%s on a saturated shard 0: err = %v, want ErrOverloaded", c.name, err)
			}
			after := s.Stats()
			if delta := after[0].Rejected - before[0].Rejected; delta != 1 {
				t.Errorf("admission rejections = %d, want 1 (remaining legs must short-circuit)", delta)
			}
			for i := 1; i < workers; i++ {
				if ops := after[i].Ops - before[i].Ops; ops != 0 {
					t.Errorf("worker %d executed %d requests after shard 0 refused the call, want none", i, ops)
				}
			}

			close(gate)
			acks.Wait()
		})
	}
}

// TestHotCacheCoherence is the concurrency acceptance test (race-clean):
// one writer per key advances a version counter through puts and
// deletes while readers hammer the cached read paths. No read may ever
// observe a version older than the highest acknowledged before the read
// was issued — a stale cache entry (positive or negative) fails loudly.
func TestHotCacheCoherence(t *testing.T) {
	const workers = 3
	const keysN = 6
	s, _ := openStubStore(t, workers, nil, func(o *Options) {
		o.HotCacheBytes = 1 << 20
	})
	defer s.Close()

	type keyState struct {
		issued atomic.Int64 // highest version a write has started with
		acked  atomic.Int64 // highest version acknowledged to the writer
	}
	states := make([]*keyState, keysN)
	keys := make([][]byte, keysN)
	for i := range states {
		states[i] = &keyState{}
		keys[i] = shardKey(i%workers, i)
	}
	// Version v deletes the key when v%5 == 4, else writes "v<v>".
	isDel := func(v int64) bool { return v%5 == 4 }
	parseVer := func(val []byte) int64 {
		if !bytes.HasPrefix(val, []byte("v")) {
			t.Errorf("unparseable cached value %q", val)
			return -1
		}
		v, err := strconv.ParseInt(string(val[1:]), 10, 64)
		if err != nil {
			t.Errorf("unparseable version in %q: %v", val, err)
			return -1
		}
		return v
	}

	stop := make(chan struct{})
	var writers sync.WaitGroup
	for i := range keys {
		writers.Add(1)
		go func(i int) {
			defer writers.Done()
			st := states[i]
			for {
				select {
				case <-stop:
					return
				default:
				}
				v := st.issued.Add(1)
				var err error
				if isDel(v) {
					err = s.Delete(keys[i])
				} else {
					err = s.Put(keys[i], []byte(fmt.Sprintf("v%d", v)))
				}
				if err != nil {
					t.Errorf("writer key %d ver %d: %v", i, v, err)
					return
				}
				st.acked.Store(v) // single writer per key: plain ratchet
				// Throttle: unbounded writers would saturate the queues
				// and starve the readers this test is actually about.
				time.Sleep(50 * time.Microsecond)
			}
		}(i)
	}

	// check validates one observation of key i against the windows
	// snapshotted around the read.
	check := func(i int, val []byte, found bool, lo, hi int64, path string) {
		if found {
			v := parseVer(val)
			if v < 0 {
				return
			}
			if v < lo || v > hi {
				t.Errorf("%s key %d: STALE READ: version %d outside [%d,%d]", path, i, v, lo, hi)
			}
			if isDel(v) {
				t.Errorf("%s key %d: found value carries delete version %d", path, i, v)
			}
			return
		}
		// Not found: legal only if the key might still be unwritten
		// (lo == 0) or some delete version lies in the window.
		if lo == 0 {
			return
		}
		okNF := false
		for v := lo; v <= hi; v++ {
			if isDel(v) {
				okNF = true
				break
			}
		}
		if !okNF {
			t.Errorf("%s key %d: STALE NOT-FOUND: no delete version in [%d,%d]", path, i, lo, hi)
		}
	}

	var readers sync.WaitGroup
	for g := 0; g < 4; g++ {
		readers.Add(1)
		go func(g int) {
			defer readers.Done()
			for n := 0; n < 1500; n++ {
				i := (g + n) % keysN
				lo := states[i].acked.Load()
				v, err := s.Get(keys[i])
				hi := states[i].issued.Load()
				switch {
				case err == nil:
					check(i, v, true, lo, hi, "get")
				case errors.Is(err, kv.ErrNotFound):
					check(i, nil, false, lo, hi, "get")
				default:
					t.Errorf("get key %d: %v", i, err)
				}
				if n%10 == 0 {
					los := make([]int64, keysN)
					for j := range keys {
						los[j] = states[j].acked.Load()
					}
					out, err := s.MultiGet(keys)
					if err != nil {
						t.Errorf("multiget: %v", err)
						continue
					}
					for j := range keys {
						hi := states[j].issued.Load()
						check(j, out[j], out[j] != nil, los[j], hi, "multiget")
					}
				}
			}
		}(g)
	}
	readers.Wait()
	close(stop)
	writers.Wait()

	snap := s.StatsSnapshot()
	if snap.CacheHits+snap.CacheNegHits == 0 {
		t.Fatal("coherence run never hit the cache — the test proved nothing")
	}
	if snap.CacheInvalidations == 0 {
		t.Fatal("coherence run never invalidated")
	}
}
