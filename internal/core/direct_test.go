package core

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"p2kvs/internal/btreekv"
	"p2kvs/internal/keyspace"
	"p2kvs/internal/kv"
	"p2kvs/internal/kvell"
	"p2kvs/internal/lsm"
	"p2kvs/internal/vfs"
)

// The history stress of the direct rule (Store.GetCtx, MultiGetCtx per leg,
// and the synchronous writes — Put, Delete, a one-partition Write and each
// leg of a WriteEachCtx — that an idle worker's caller commits itself):
// whichever goroutine performs an engine read or write, every Get and every
// MultiGetCtx slot must return a version no older than the newest
// acknowledged before it was invoked, no newer than the newest issued when
// it returned, and never older than the same reader's previous read of that
// key; and a writer whose PutAsync has returned must read that write back,
// by a Get and by a MultiGetCtx. go test runs each cell for -direct.window;
// make stress SUITE=cache runs the long form.
var (
	directWindow = flag.Duration("direct.window", 80*time.Millisecond, "load window of each TestDirectReadHistory cell")
	directSeed   = flag.Int64("direct.seed", 1, "seed of TestDirectReadHistory's key and operation choices")
)

const (
	historyKeys    = 24
	historyWriters = 3
	historyReaders = 4
	deleteEvery    = 8 // version v of a key is a Delete iff v%deleteEvery == 0; version 0 is "never written"
)

// history is what the clients know: per key, the newest version a write was
// invoked with and the newest acknowledged. Each key has one writer, so both
// only grow.
type history struct {
	issued, acked [historyKeys]atomic.Int64
}

func historyKey(i int) []byte { return []byte(fmt.Sprintf("hist-%03d", i)) }

func historyValue(i int, v int64) []byte { return []byte(fmt.Sprintf("%03d:%d", i, v)) }

func historyOp(i int, v int64) kv.BatchOp {
	if v%deleteEvery == 0 {
		return kv.BatchOp{Kind: kv.OpDelete, Key: historyKey(i)}
	}
	return kv.BatchOp{Kind: kv.OpPut, Key: historyKey(i), Value: historyValue(i, v)}
}

// observe checks one read of key i — invoked after version lo was
// acknowledged, returned before version hi+1 was issued, by a reader that had
// last seen version prev — and returns the version it saw. An absent key is
// read as the oldest Delete the bounds allow, which keeps the check sound
// without knowing which Delete it was.
func observe(i int, val []byte, err error, lo, hi, prev int64) (int64, error) {
	floor := max(lo, prev)
	if errors.Is(err, kv.ErrNotFound) {
		seen := (floor + deleteEvery - 1) / deleteEvery * deleteEvery
		if seen > hi {
			return 0, fmt.Errorf("key %d absent, but versions %d..%d hold no delete (acked %d before the read, reader had seen %d)", i, floor, hi, lo, prev)
		}
		return seen, nil
	}
	if err != nil {
		return 0, err
	}
	want := fmt.Sprintf("%03d:", i)
	if len(val) <= len(want) || string(val[:len(want)]) != want {
		return 0, fmt.Errorf("key %d: value %q is not one of its versions", i, val)
	}
	seen, perr := strconv.ParseInt(string(val[len(want):]), 10, 64)
	switch {
	case perr != nil || seen%deleteEvery == 0:
		return 0, fmt.Errorf("key %d: value %q is not one of its versions", i, val)
	case seen < lo:
		return 0, fmt.Errorf("key %d: read version %d, but %d was acknowledged before the read was invoked", i, seen, lo)
	case seen < prev:
		return 0, fmt.Errorf("key %d: read version %d after this reader had read %d", i, seen, prev)
	case seen > hi:
		return 0, fmt.Errorf("key %d: read version %d, newer than the newest issued (%d)", i, seen, hi)
	}
	return seen, nil
}

// multiGet reads keys (history key indexes) with one MultiGetCtx and
// observes each slot against prev, the reader's last seen version per key,
// which it advances.
func (h *history) multiGet(s *Store, keys []int, prev *[historyKeys]int64) error {
	lo := make([]int64, len(keys))
	bs := make([][]byte, len(keys))
	for j, i := range keys {
		lo[j], bs[j] = h.acked[i].Load(), historyKey(i)
	}
	vals, err := s.MultiGetCtx(nil, bs)
	if err != nil {
		return err
	}
	for j, i := range keys {
		var absent error
		if vals[j] == nil {
			absent = kv.ErrNotFound
		}
		seen, err := observe(i, vals[j], absent, lo[j], h.issued[i].Load(), prev[i])
		if err != nil {
			return fmt.Errorf("slot %d of %d: %w", j, len(keys), err)
		}
		prev[i] = seen
	}
	return nil
}

// spanningKeys picks n distinct history keys, the first first when it is
// not -1 and the rest drawn by pick, of which the first two are owned by
// different workers under the routing in force when they are picked.
func spanningKeys(rng *rand.Rand, s *Store, n, first int, pick func() int) []int {
	rt := s.route.Load()
	keys := make([]int, 0, n)
	if first >= 0 {
		keys = append(keys, first)
	}
	for len(keys) < n {
		i := pick()
		if slices.Contains(keys, i) || len(keys) == 1 && rt.part.Pick(historyKey(i)) == rt.part.Pick(historyKey(keys[0])) {
			continue
		}
		keys = append(keys, i)
	}
	return keys
}

func TestDirectReadHistory(t *testing.T) {
	engines := []struct {
		name string
		open func(fs vfs.FS, root string) EngineFactory
	}{
		{"lsm-rocksdb", lsmFactory},
		{"btreekv", func(fs vfs.FS, root string) EngineFactory {
			return func(id int, _ func(uint64) bool) (kv.Engine, error) {
				return btreekv.Open(fmt.Sprintf("%s/inst-%02d", root, id), btreekv.Options{FS: fs, CheckpointBytes: 16 << 10})
			}
		}},
		{"kvell", func(fs vfs.FS, root string) EngineFactory {
			return func(id int, _ func(uint64) bool) (kv.Engine, error) {
				return kvell.Open(fmt.Sprintf("%s/inst-%02d", root, id), kvell.Options{FS: fs, Workers: 1})
			}
		}},
	}
	cell := 0
	for _, eng := range engines {
		for _, direct := range []bool{true, false} {
			for _, hot := range []bool{true, false} {
				cell++
				seed := *directSeed*100 + int64(cell)
				t.Run(fmt.Sprintf("%s/direct=%v/hotcache=%v", eng.name, direct, hot), func(t *testing.T) {
					t.Parallel()
					fs := vfs.NewMem()
					// Every other engine write stalls: an apply that takes
					// real time, as on a device, is what leaves a worker
					// between dequeue and applied long enough to be caught.
					slow := vfs.NewFaultSeeded(fs, seed)
					slow.Inject(vfs.Rule{Op: vfs.OpWrite, Path: "inst-", Prob: 0.5, DelayOnly: true, Delay: 50 * time.Microsecond})
					s := openElasticWith(t, fs, "p2", 4, eng.open(slow, "p2"), func(o *Options) {
						o.Direct = direct
						o.CutoverBudget = time.Second // a loaded 2-core race run must not abort the reshard
						if !hot {
							o.HotCacheBytes = 0
						}
					})
					runHistory(t, s, seed, direct, hot)
				})
			}
		}
	}
}

// runHistory drives s with one writer per key and several readers while
// checkpoints park the workers and the store reshards 4 -> 5 -> 4, then
// closes it under them. It owns s.
func runHistory(t *testing.T, s *Store, seed int64, direct, hot bool) {
	var (
		h       history
		closing atomic.Bool // set before Close: kv.ErrClosed is an answer from then on
		failed  atomic.Bool
		clients sync.WaitGroup
		bg      sync.WaitGroup
		rounds  atomic.Int64 // completed 4 -> 5 -> 4 reshard rounds
		ckpts   atomic.Int64
	)
	// done reports whether a client should stop: the store closed under it
	// (legal once closing is set), or anything else went wrong (reported).
	done := func(who string, err error) bool {
		switch {
		case err == nil:
			return failed.Load()
		case errors.Is(err, kv.ErrClosed) && closing.Load():
			return true
		}
		if !failed.Swap(true) {
			t.Errorf("seed %d: %s: %v", seed, who, err)
		}
		return true
	}

	// Before the load, on the idle store: every leg of a WriteEachCtx of
	// version 1 of every key, and of a multiget over all the keys, runs on
	// its caller, or with Direct off none does.
	all := make([][]byte, historyKeys)
	var first kv.Batch
	for i := range all {
		all[i] = historyKey(i)
		first.Put(historyKey(i), historyValue(i, 1))
		h.issued[i].Store(1)
	}
	s.WriteEachCtx(nil, &first, make([]error, historyKeys))
	for i := range all {
		h.acked[i].Store(1) // a failed write is caught by the multiget below
	}
	vals, err := s.MultiGetCtx(nil, all)
	if err != nil {
		s.Close()
		t.Fatalf("seed %d: MultiGetCtx on the idle store: %v", seed, err)
	}
	for i, v := range vals {
		if string(v) != string(historyValue(i, 1)) {
			s.Close()
			t.Fatalf("seed %d: key %d reads %q after the first WriteEachCtx", seed, i, v)
		}
	}
	agg := s.StatsSnapshot().Aggregate
	if n, want := agg.DirectWrites, int64(historyKeys); direct && n != want {
		t.Errorf("seed %d: Direct on, yet %d of %d ops of a WriteEachCtx on the idle store ran directly: the test no longer exercises direct writes", seed, n, want)
	}
	if n, want := agg.DirectReads, int64(historyKeys); direct && n != want {
		t.Errorf("seed %d: Direct on, yet %d of %d keys of a multiget on the idle store ran directly: the test no longer exercises direct legs", seed, n, want)
	}

	for w := 0; w < historyWriters; w++ {
		clients.Add(1)
		go func() {
			defer clients.Done()
			rng := rand.New(rand.NewSource(seed*1000 + int64(w)))
			who := fmt.Sprintf("writer %d", w)
			acks := make(chan error, 1)
			own := func() int { return w + historyWriters*rng.Intn(historyKeys/historyWriters) }
			for {
				i := own()
				v := h.issued[i].Load() + 1
				op := historyOp(i, v)
				var err error
				switch form := rng.Intn(4); {
				case op.Kind == kv.OpDelete:
					h.issued[i].Store(v)
					err = s.Delete(op.Key)
				case form == 0:
					h.issued[i].Store(v)
					err = s.Put(op.Key, op.Value)
				case form == 1:
					h.issued[i].Store(v)
					if err = s.PutAsync(op.Key, op.Value, func(err error) { acks <- err }); err != nil {
						break
					}
					// Returned, not yet acknowledged: this client's next
					// read must see it all the same — the read queues behind
					// the write, or finds the worker idle only once it is
					// applied. A hot-cache hit promises less (DESIGN §14: no
					// value older than the last acknowledged write).
					lo := v
					if hot {
						lo = h.acked[i].Load()
					}
					// The window to hit lies between the worker's dequeue
					// of the write and its apply: let the worker run first,
					// sometimes.
					if rng.Intn(2) == 0 {
						runtime.Gosched()
					} else {
						for spin := time.Now(); time.Since(spin) < time.Duration(rng.Intn(60))*time.Microsecond; {
						}
					}
					// The read is a Get, or one slot of a 2-key MultiGetCtx
					// whose other key lies on another shard.
					var gerr error
					if rng.Intn(2) == 0 {
						var val []byte
						val, gerr = s.Get(op.Key)
						_, gerr = observe(i, val, gerr, lo, v, lo)
					} else {
						var floor [historyKeys]int64
						floor[i] = lo
						gerr = h.multiGet(s, spanningKeys(rng, s, 2, i, func() int { return rng.Intn(historyKeys) }), &floor)
					}
					if gerr != nil && done(who+": read after PutAsync returned", gerr) {
						<-acks
						return
					}
					err = <-acks
				case form == 2: // the next version of 2-4 own keys across shards
					keys := spanningKeys(rng, s, 2+rng.Intn(3), i, own)
					var b kv.Batch
					for _, k := range keys {
						v := h.issued[k].Load() + 1
						if op := historyOp(k, v); op.Kind == kv.OpDelete {
							b.Delete(op.Key)
						} else {
							b.Put(op.Key, op.Value)
						}
						h.issued[k].Store(v)
					}
					errs := make([]error, len(keys))
					s.WriteEachCtx(nil, &b, errs)
					for j, k := range keys {
						if done(who+": WriteEachCtx", errs[j]) {
							return
						}
						h.acked[k].Store(h.issued[k].Load())
					}
					continue
				default: // two versions in one single-shard batch
					var b kv.Batch
					b.Put(op.Key, op.Value)
					v++
					if next := historyOp(i, v); next.Kind == kv.OpDelete {
						b.Delete(next.Key)
					} else {
						b.Put(next.Key, next.Value)
					}
					h.issued[i].Store(v)
					err = s.Write(&b)
				}
				if done(who, err) {
					return
				}
				h.acked[i].Store(v)
			}
		}()
	}
	for r := 0; r < historyReaders; r++ {
		clients.Add(1)
		go func() {
			defer clients.Done()
			rng := rand.New(rand.NewSource(seed*1000 + 100 + int64(r)))
			who := fmt.Sprintf("reader %d", r)
			var prev [historyKeys]int64
			for n := 0; ; n++ {
				if n%2 == 1 { // every other read is a MultiGetCtx of 2-4 keys
					if done(who+": MultiGetCtx", h.multiGet(s, spanningKeys(rng, s, 2+rng.Intn(3), -1, func() int { return rng.Intn(historyKeys) }), &prev)) {
						return
					}
					continue
				}
				i := rng.Intn(historyKeys)
				lo := h.acked[i].Load()
				val, err := s.Get(historyKey(i))
				seen, err := observe(i, val, err, lo, h.issued[i].Load(), prev[i])
				if done(who, err) {
					return
				}
				prev[i] = seen
			}
		}()
	}
	// Checkpoints and reshards overlap freely (Checkpoint excludes a reshard
	// from its barrier section itself); reads and writes overlap both.
	bg.Add(2)
	go func() { // the checkpoint barrier parks every worker
		defer bg.Done()
		ckfs := vfs.NewMem()
		for !closing.Load() {
			_, err := s.Checkpoint(ckfs, "ckpt")
			if done("checkpoint", err) {
				return
			}
			ckpts.Add(1)
			time.Sleep(time.Millisecond)
		}
	}()
	go func() { // elastic reshard: routing changes under the readers
		defer bg.Done()
		for !closing.Load() {
			for _, n := range []int{5, 4} {
				err := s.Reshard(context.Background(), n)
				// A reshard the close interrupts aborts with an error of its
				// own making; only one that fails on an open store is a finding.
				if err != nil {
					if !closing.Load() {
						done("reshard", err)
					}
					return
				}
				time.Sleep(time.Millisecond)
			}
			rounds.Add(1)
		}
	}()

	start := time.Now()
	for !failed.Load() && (time.Since(start) < *directWindow || rounds.Load() == 0 || ckpts.Load() == 0) {
		if time.Since(start) > 30*time.Second {
			t.Errorf("seed %d: after 30s: %d reshard rounds, %d checkpoints", seed, rounds.Load(), ckpts.Load())
			break
		}
		time.Sleep(time.Millisecond)
	}
	agg = s.StatsSnapshot().Aggregate
	closing.Store(true)
	if err := s.Close(); err != nil { // racing every client and both background loops
		t.Errorf("seed %d: Close: %v", seed, err)
	}
	clients.Wait()
	bg.Wait()
	if direct && (agg.DirectReads == 0 || agg.DirectWrites <= historyKeys) {
		t.Errorf("seed %d: Direct on, yet %d reads and %d write ops beyond the first batch ran directly: the test no longer exercises the path", seed, agg.DirectReads, agg.DirectWrites-historyKeys)
	}
	if !direct && agg.DirectReads+agg.DirectWrites != 0 {
		t.Errorf("seed %d: Direct off, yet %d reads and %d write ops ran directly", seed, agg.DirectReads, agg.DirectWrites)
	}
}

// benchStore opens four idle workers over lsm with Direct set to
// direct and loads n keys; it returns the store and the keys.
func benchStore(b *testing.B, direct bool, n int) (*Store, [][]byte) {
	fs := vfs.NewMem()
	opts := DefaultOptions(func(id int, _ func(uint64) bool) (kv.Engine, error) {
		return lsm.Open(fmt.Sprintf("bench/inst-%02d", id), lsm.RocksDBOptions(fs))
	})
	opts.Workers, opts.Direct = 4, direct
	s, err := Open(opts)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { s.Close() })
	val := make([]byte, 128)
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key-%012d", i))
		if err := s.Put(keys[i], val); err != nil {
			b.Fatal(err)
		}
	}
	return s, keys
}

// BenchmarkGet is one client's synchronous Get against four idle workers
// over lsm — the handoff the direct read removes, with nothing else in the
// way: direct=true is what a store does, direct=false sends every Get to
// its worker as the paper's accessing layer does (make cpu-profile profiles
// both).
func BenchmarkGet(b *testing.B) {
	for _, direct := range []bool{true, false} {
		b.Run(fmt.Sprintf("direct=%v", direct), func(b *testing.B) {
			s, keys := benchStore(b, direct, 50000)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Get(keys[i%len(keys)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMultiGet is BenchmarkGet for one client's 16-key MultiGet, the
// read a pipelined window of GETs becomes: direct=true runs each idle
// worker's leg on the caller, one after another; direct=false queues every
// leg and waits for the four workers (make cpu-profile profiles both).
func BenchmarkMultiGet(b *testing.B) {
	const batch = 16
	for _, direct := range []bool{true, false} {
		b.Run(fmt.Sprintf("direct=%v", direct), func(b *testing.B) {
			s, keys := benchStore(b, direct, 50000)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				lo := i * batch % (len(keys) - batch)
				if _, err := s.MultiGet(keys[lo : lo+batch]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkWriteEach is BenchmarkMultiGet for one client's 16-op
// WriteEachCtx, the write a pipelined run of SETs becomes: direct=true
// commits each idle worker's leg on the caller, one after another;
// direct=false queues every leg and waits for the four workers (make
// cpu-profile profiles both).
func BenchmarkWriteEach(b *testing.B) {
	const batch = 16
	for _, direct := range []bool{true, false} {
		b.Run(fmt.Sprintf("direct=%v", direct), func(b *testing.B) {
			s, keys := benchStore(b, direct, 50000)
			val := make([]byte, 128)
			var wb kv.Batch
			errs := make([]error, batch)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				lo := i * batch % (len(keys) - batch)
				wb.Reset()
				for _, k := range keys[lo : lo+batch] {
					wb.Put(k, val)
				}
				s.WriteEachCtx(nil, &wb, errs)
				if err := errors.Join(errs...); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestDirectWritePaths pins where a synchronous write runs and what it
// counts, as TestMultiGetLegPaths does for reads. Two keys on each of four
// workers. On an idle store a Put, a Delete, a one-partition WriteCtx and
// each leg of a WriteEachCtx are led by their caller: DirectWrites grows by
// the op count and worker Ops do not move. With worker 0 wedged its leg
// queues and the others still run on the caller; with worker 0 busy but its
// exec free a Put leads. A live deadline, a cross-partition WriteCtx (a
// §4.5 transaction), PutAsync, an active reshard run and Direct off queue
// every write.
func TestDirectWritePaths(t *testing.T) {
	const workers, perShard = 4, 2
	var spread kv.Batch // two keys on every worker
	for shard := 0; shard < workers; shard++ {
		for i := 0; i < perShard; i++ {
			spread.Put(shardKey(shard, i), []byte("v"))
		}
	}
	var one kv.Batch // two ops on worker 1
	one.Put(shardKey(1, 0), []byte("v"))
	one.Delete(shardKey(1, 1))
	open := func(t *testing.T, direct bool) *Store {
		opts := DefaultOptions(func(int, func(uint64) bool) (kv.Engine, error) { return &nopEngine{}, nil })
		opts.Workers, opts.Partitioner, opts.Direct = workers, firstByteMod{n: workers}, direct
		opts.TxnFS, opts.TxnDir = vfs.NewMem(), "txn"
		s, err := Open(opts)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		return s
	}
	each := func(s *Store, ctx context.Context) error {
		errs := make([]error, spread.Len())
		s.WriteEachCtx(ctx, &spread, errs)
		return errors.Join(errs...)
	}
	// run applies op and compares each worker's growth of DirectWrites and
	// Ops with want, indexed by worker.
	run := func(t *testing.T, s *Store, op func() error, want [workers][2]int64) {
		t.Helper()
		before := s.Stats()
		if err := op(); err != nil {
			t.Fatal(err)
		}
		for i, st := range s.Stats() {
			if got := [2]int64{st.DirectWrites - before[i].DirectWrites, st.Ops - before[i].Ops}; got != want[i] {
				t.Errorf("worker %d: direct writes, ops grew by %v, want %v", i, got, want[i])
			}
		}
	}
	deadline, cancel := context.WithTimeout(context.Background(), time.Hour)
	defer cancel()
	direct := [2]int64{perShard, 0}
	queued := [2]int64{0, 1}
	for _, c := range []struct {
		name   string
		direct bool
		op     func(s *Store) error
		want   [workers][2]int64
	}{
		{"Put", true, func(s *Store) error { return s.Put(shardKey(0, 0), []byte("v")) }, [workers][2]int64{{1, 0}}},
		{"Delete", true, func(s *Store) error { return s.Delete(shardKey(2, 0)) }, [workers][2]int64{2: {1, 0}}},
		{"WriteCtx/one-partition", true, func(s *Store) error { return s.WriteCtx(nil, &one) }, [workers][2]int64{1: {2, 0}}},
		{"WriteEachCtx", true, func(s *Store) error { return each(s, nil) }, [workers][2]int64{direct, direct, direct, direct}},
		{"deadline/Put", true, func(s *Store) error { return putCtx(s, deadline, shardKey(0, 0), []byte("v")) }, [workers][2]int64{queued}},
		{"deadline/WriteEachCtx", true, func(s *Store) error { return each(s, deadline) }, [workers][2]int64{queued, queued, queued, queued}},
		{"WriteCtx/transaction", true, func(s *Store) error { return s.WriteCtx(nil, &spread) }, [workers][2]int64{queued, queued, queued, queued}},
		{"PutAsync", true, func(s *Store) error {
			acked := make(chan error, 1)
			if err := s.PutAsync(shardKey(3, 0), []byte("v"), func(err error) { acked <- err }); err != nil {
				return err
			}
			return <-acked
		}, [workers][2]int64{3: queued}},
		{"reshard", true, func(s *Store) error {
			// A run whose plan moves nothing: only its presence is tested.
			s.resh.Store(&reshardRun{plan: keyspace.NewMovedSet(nil)})
			defer s.resh.Store(nil)
			return each(s, nil)
		}, [workers][2]int64{queued, queued, queued, queued}},
		{"Direct=false/Put", false, func(s *Store) error { return s.Put(shardKey(0, 0), []byte("v")) }, [workers][2]int64{queued}},
		{"Direct=false/WriteEachCtx", false, func(s *Store) error { return each(s, nil) }, [workers][2]int64{queued, queued, queued, queued}},
	} {
		t.Run(c.name, func(t *testing.T) {
			s := open(t, c.direct)
			run(t, s, func() error { return c.op(s) }, c.want)
		})
	}
	t.Run("wedged", func(t *testing.T) {
		s := open(t, true)
		entered, gate := make(chan struct{}), make(chan struct{})
		go s.ws()[0].do(func(*worker) error { close(entered); <-gate; return nil })
		<-entered // counted in Ops before run's snapshot: a worker counts a run as it starts it
		wedged := make(chan bool, 1)
		go func() {
			wedged <- waitPending(s.ws()[0], 2) // the wedge and the leg behind it
			close(gate)
		}()
		run(t, s, func() error { return each(s, nil) }, [workers][2]int64{queued, direct, direct, direct})
		if !<-wedged {
			t.Error("worker 0's leg never queued behind the wedge")
		}
	})
	// A worker busy in a run that does not hold exec: a Put leads anyway,
	// where the old pending test queued it behind the held worker.
	t.Run("busy worker, free exec", func(t *testing.T) {
		s := open(t, true)
		release := freeExec(s.ws()[0])
		defer release()
		guard := time.AfterFunc(5*time.Second, release) // a queued Put waits for the worker
		defer guard.Stop()
		run(t, s, func() error { return s.Put(shardKey(0, 0), []byte("v")) }, [workers][2]int64{{1, 0}})
	})
	// A direct write parked in its engine. A read of its worker is concurrent
	// with the unacknowledged write and runs on its caller beside it: the
	// write does not count itself in pending, with or without a hot cache.
	// With one, a key resident before the park and written by the parked
	// write is fenced: it is read from the engine, never from the cache,
	// until the write-through, which leaves the new value resident. Either
	// way a second write queues, and the worker takes it only once the
	// direct write has left exec.
	for _, hot := range []bool{false, true} {
		t.Run(fmt.Sprintf("parked direct write/hotcache=%v", hot), func(t *testing.T) {
			eng := newGatedNop(false)
			opts := DefaultOptions(func(int, func(uint64) bool) (kv.Engine, error) { return eng, nil })
			opts.Workers = 1
			if hot {
				opts.HotCacheBytes = 1 << 20
			}
			s, err := Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			release := sync.OnceFunc(func() { close(eng.gate) })
			defer s.Close()
			defer release()
			get := func(key string) []byte {
				t.Helper()
				got := make(chan []byte, 1)
				go func() {
					v, err := s.Get([]byte(key))
					if err != nil {
						t.Error(err)
					}
					got <- v
				}()
				select {
				case v := <-got:
					return v
				case <-time.After(5 * time.Second):
					t.Fatalf("Get(%s) queued behind the parked direct write", key)
					return nil
				}
			}
			get("a") // resident from here on, with a hot cache
			before := s.StatsSnapshot()
			errc := make(chan error, 2)
			go func() { errc <- s.Put([]byte("a"), []byte("1")) }()
			<-eng.entered // the caller is inside the engine, holding exec
			get("b")
			get("a")
			go func() { errc <- s.Put([]byte("c"), []byte("2")) }()
			if !waitPending(s.ws()[0], 1) { // the second write alone
				t.Fatalf("pending = %d, want 1", s.ws()[0].q.pending.Load())
			}
			select {
			case <-eng.entered:
				t.Error("a second write entered the engine beside the direct write")
			case err := <-errc:
				t.Errorf("a write returned while the direct write was inside the engine (%v)", err)
			case <-time.After(20 * time.Millisecond):
			}
			snap := s.StatsSnapshot()
			agg := snap.Aggregate
			if ops, writes, reads, hits := agg.Ops, agg.DirectWrites, agg.DirectReads-before.Aggregate.DirectReads, snap.CacheHits-before.CacheHits; ops != 0 || writes != 1 || reads != 2 || hits != 0 {
				t.Errorf("while the direct write is in the engine: worker ops %d, direct writes %d, direct reads %d, cache hits %d; want 0, 1, 2, 0", ops, writes, reads, hits)
			}
			release()
			for range 2 {
				if err := <-errc; err != nil {
					t.Error(err)
				}
			}
			if st := s.Stats()[0]; st.Ops != 1 || st.DirectWrites != 1 {
				t.Errorf("worker ops %d, direct writes %d; want 1, 1", st.Ops, st.DirectWrites)
			}
			if hot {
				hits := s.StatsSnapshot().CacheHits
				if v := get("a"); string(v) != "1" || s.StatsSnapshot().CacheHits != hits+1 {
					t.Errorf("after the write-through a = %q (cache hits %d -> %d); want \"1\" from the cache", v, hits, s.StatsSnapshot().CacheHits)
				}
			}
		})
	}
}

// freeExec holds w's goroutine in a closure that has let go of exec until
// release is called: w is busy — the closure counts in pending — and its
// exec is free, the state a synchronous writer finds between two of the
// worker's runs. The closure takes exec back before it returns.
func freeExec(w *worker) (release func()) {
	entered, gate := make(chan struct{}), make(chan struct{})
	go w.do(func(w *worker) error {
		w.exec.Unlock()
		close(entered)
		<-gate
		w.exec.Lock()
		return nil
	})
	<-entered
	return sync.OnceFunc(func() { close(gate) })
}

// TestLeaderFIFO races a synchronous Put(k, "v2") against the worker for
// the PutAsync(k, "v1") queued before it: the worker, woken by the PutAsync,
// waits for exec, which the test holds and lets go of just before the Put.
// Whoever takes exec first runs the head of the queue, so the queued write
// always lands first and k ends at "v2", whether the Put led or queued. A
// worker that popped its run and then waited for exec would apply "v1"
// after a led "v2".
func TestLeaderFIFO(t *testing.T) {
	s, engines := openStubStore(t, 1, nil, nil)
	defer s.Close()
	w, k := s.ws()[0], []byte("0-k")
	const rounds = 50
	led := 0
	for i := 0; i < rounds; i++ {
		w.exec.Lock()
		acked := make(chan error, 1)
		if err := s.PutAsync(k, []byte("v1"), func(err error) { acked <- err }); err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Millisecond) // the worker reaches exec
		before := w.directWrites.Load()
		w.exec.Unlock()
		if err := s.Put(k, []byte("v2")); err != nil {
			t.Fatal(err)
		}
		if w.directWrites.Load() != before {
			led++
		}
		select {
		case err := <-acked:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("round %d: the PutAsync was never acknowledged", i)
		}
		if v, err := engines[0].Get(k); err != nil || string(v) != "v2" {
			t.Fatalf("round %d: k = %q (%v), want \"v2\"", i, v, err)
		}
	}
	t.Logf("the Put led %d of %d rounds", led, rounds)
}

// TestLeaderCombines: with exec free and one PutAsync queued, a Put on
// that worker leads a run of both, merged into one engine batch. Both ops
// count as DirectWrites, none as worker Ops, and the worker goroutine,
// released afterwards, finds nothing left to run.
func TestLeaderCombines(t *testing.T) {
	opts := DefaultOptions(func(int, func(uint64) bool) (kv.Engine, error) { return &nopEngine{}, nil })
	opts.Workers = 1
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	w := s.ws()[0]
	release := freeExec(w)
	defer release()
	before := w.stats()
	acked := make(chan error, 1)
	if err := s.PutAsync([]byte("a"), []byte("1"), func(err error) { acked <- err }); err != nil {
		t.Fatal(err)
	}
	put := make(chan error, 1)
	go func() { put <- s.Put([]byte("b"), []byte("2")) }()
	select {
	case err := <-put:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Error("the Put did not lead: it waited for the held worker")
		release()
		<-put
	}
	if err := <-acked; err != nil {
		t.Fatal(err)
	}
	release()
	if !waitPending(w, 0) {
		t.Fatal("the worker never finished its closure")
	}
	st := w.stats()
	if got := [4]int64{st.DirectWrites - before.DirectWrites, st.BatchWriteOps - before.BatchWriteOps, st.Ops - before.Ops, st.Batches - before.Batches}; got != [4]int64{2, 2, 0, 0} {
		t.Errorf("direct writes, batch-write ops, worker ops, worker batches grew by %v; want [2 2 0 0]", got)
	}
}

// TestLeaderRunsReadsAhead: a leader runs the read runs queued ahead of it
// as it runs the write runs. With exec free and a PutAsync(a) and a
// GetAsync(a) queued, a Put(b) leads three runs in order: a's write, a's
// read, which sees it, then its own write. The read counts as a DirectRead,
// the writes as DirectWrites, and the worker goroutine executes nothing.
func TestLeaderRunsReadsAhead(t *testing.T) {
	s, _ := openStubStore(t, 1, nil, nil)
	defer s.Close()
	w := s.ws()[0]
	release := freeExec(w)
	defer release()
	before := w.stats()
	if err := s.PutAsync([]byte("0-a"), []byte("1"), func(error) {}); err != nil {
		t.Fatal(err)
	}
	got := make(chan string, 1)
	if err := s.GetAsync([]byte("0-a"), func(v []byte, err error) { got <- fmt.Sprint(string(v), err) }); err != nil {
		t.Fatal(err)
	}
	put := make(chan error, 1)
	go func() { put <- s.Put([]byte("0-b"), []byte("2")) }()
	select {
	case err := <-put:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Error("the Put did not lead: it waited for the held worker")
		release()
		<-put
	}
	select {
	case v := <-got:
		if v != "1<nil>" {
			t.Errorf("the queued read returned %q, want the queued write's \"1\"", v)
		}
	default:
		t.Error("the Put returned before the read queued ahead of it ran")
	}
	release()
	if !waitPending(w, 0) {
		t.Fatal("the worker never finished its closure")
	}
	st := w.stats()
	if got := [3]int64{st.DirectWrites - before.DirectWrites, st.DirectReads - before.DirectReads, st.Ops - before.Ops}; got != [3]int64{2, 1, 0} {
		t.Errorf("direct writes, direct reads, worker ops grew by %v; want [2 1 0]", got)
	}
}

// TestLeaderLeavesClosures: a leader never runs a closure. With a closure
// queued ahead of it, a Put leaves its write to the worker, which runs the
// closure and then the write; nothing counts as DirectWrites.
func TestLeaderLeavesClosures(t *testing.T) {
	opts := DefaultOptions(func(int, func(uint64) bool) (kv.Engine, error) { return &nopEngine{}, nil })
	opts.Workers = 1
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	w := s.ws()[0]
	release := freeExec(w)
	defer release()
	var ran atomic.Bool
	go w.do(func(*worker) error { ran.Store(true); return nil })
	if !waitPending(w, 2) {
		t.Fatal("the closure never queued")
	}
	before := w.stats()
	put := make(chan error, 1)
	go func() { put <- s.Put([]byte("k"), []byte("v")) }()
	if !waitPending(w, 3) {
		t.Fatal("the Put was not left to the worker")
	}
	select {
	case err := <-put:
		t.Fatalf("the Put returned (%v) before the worker ran the closure ahead of it", err)
	case <-time.After(20 * time.Millisecond):
	}
	release()
	if err := <-put; err != nil {
		t.Fatal(err)
	}
	st := w.stats()
	if !ran.Load() || st.DirectWrites != before.DirectWrites || st.Ops-before.Ops != 2 {
		t.Errorf("closure ran %v, direct writes grew by %d, worker ops by %d; want true, 0, 2", ran.Load(), st.DirectWrites-before.DirectWrites, st.Ops-before.Ops)
	}
}

// BenchmarkPut is one client's synchronous Put against four idle workers
// over lsm: direct=true leads each write on the caller under its worker's
// exec lock, direct=false hands every write to its worker and waits, as the
// paper's accessing layer does. led is direct=true with a PutAsync stream
// (up to 16 in flight) on the Put's worker, so a Put that takes exec leads
// a queue that is rarely empty; direct-writes/op counts the ops each Put's
// runs carried, its own included (make cpu-profile profiles all three).
func BenchmarkPut(b *testing.B) {
	for _, direct := range []bool{true, false} {
		b.Run(fmt.Sprintf("direct=%v", direct), func(b *testing.B) {
			s, keys := benchStore(b, direct, 50000)
			val := make([]byte, 128)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.Put(keys[i%len(keys)], val); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("led", func(b *testing.B) {
		s, keys := benchStore(b, true, 50000)
		w := s.route.Load().pick(keys[0])
		var mine [][]byte
		for _, k := range keys {
			if s.route.Load().pick(k) == w {
				mine = append(mine, k)
			}
		}
		val := make([]byte, 128)
		stop, streamed := make(chan struct{}), make(chan struct{})
		go func() {
			defer close(streamed)
			inflight := make(chan struct{}, 16)
			ack := func(error) { <-inflight }
			for i := 0; ; i++ {
				select {
				case <-stop:
					for range cap(inflight) {
						inflight <- struct{}{}
					}
					return
				case inflight <- struct{}{}:
				}
				if err := s.PutAsync(mine[i%len(mine)], val, ack); err != nil {
					<-inflight
				}
			}
		}()
		before := w.directWrites.Load()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := s.Put(mine[i*7%len(mine)], val); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(w.directWrites.Load()-before)/float64(b.N), "direct-writes/op")
		close(stop)
		<-streamed
	})
}

// waitPending reports whether w's pending count reaches n within five
// seconds.
func waitPending(w *worker, n int64) bool {
	for start := time.Now(); w.q.pending.Load() != n; runtime.Gosched() {
		if time.Since(start) > 5*time.Second {
			return false
		}
	}
	return true
}
