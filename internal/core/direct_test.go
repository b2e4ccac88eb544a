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
	"p2kvs/internal/kv"
	"p2kvs/internal/kvell"
	"p2kvs/internal/lsm"
	"p2kvs/internal/vfs"
)

// The history stress of the direct read (Store.GetCtx, and MultiGetCtx per
// leg): whichever goroutine performs an engine read, every Get and every
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
// not -1, of which the first two are owned by different workers under the
// routing in force when they are picked.
func spanningKeys(rng *rand.Rand, s *Store, n, first int) []int {
	rt := s.route.Load()
	keys := make([]int, 0, n)
	if first >= 0 {
		keys = append(keys, first)
	}
	for len(keys) < n {
		i := rng.Intn(historyKeys)
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
						o.DirectReads = direct
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

	// Before the load, on the idle store: every leg of a multiget over all
	// the keys runs on its caller, or with DirectReads off none does.
	all := make([][]byte, historyKeys)
	for i := range all {
		all[i] = historyKey(i)
	}
	if _, err := s.MultiGetCtx(nil, all); err != nil {
		s.Close()
		t.Fatalf("seed %d: MultiGetCtx on the idle store: %v", seed, err)
	}
	if n, want := s.StatsSnapshot().Aggregate.DirectReads, int64(historyKeys); direct && n != want {
		t.Errorf("seed %d: DirectReads on, yet %d of %d keys of a multiget on the idle store ran directly: the test no longer exercises direct legs", seed, n, want)
	}

	for w := 0; w < historyWriters; w++ {
		clients.Add(1)
		go func() {
			defer clients.Done()
			rng := rand.New(rand.NewSource(seed*1000 + int64(w)))
			who := fmt.Sprintf("writer %d", w)
			acks := make(chan error, 1)
			for {
				i := w + historyWriters*rng.Intn(historyKeys/historyWriters)
				v := h.issued[i].Load() + 1
				op := historyOp(i, v)
				var err error
				switch form := rng.Intn(3); {
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
						gerr = h.multiGet(s, spanningKeys(rng, s, 2, i), &floor)
					}
					if gerr != nil && done(who+": read after PutAsync returned", gerr) {
						<-acks
						return
					}
					err = <-acks
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
					if done(who+": MultiGetCtx", h.multiGet(s, spanningKeys(rng, s, 2+rng.Intn(3), -1), &prev)) {
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
	directReads := s.StatsSnapshot().Aggregate.DirectReads
	closing.Store(true)
	if err := s.Close(); err != nil { // racing every client and both background loops
		t.Errorf("seed %d: Close: %v", seed, err)
	}
	clients.Wait()
	bg.Wait()
	if direct && directReads == 0 {
		t.Errorf("seed %d: DirectReads on, yet no read ran directly: the test no longer exercises the path", seed)
	}
	if !direct && directReads != 0 {
		t.Errorf("seed %d: DirectReads off, yet %d reads ran directly", seed, directReads)
	}
}

// benchStore opens four idle workers over lsm with DirectReads set to
// direct and loads n keys; it returns the store and the keys.
func benchStore(b *testing.B, direct bool, n int) (*Store, [][]byte) {
	fs := vfs.NewMem()
	opts := DefaultOptions(func(id int, _ func(uint64) bool) (kv.Engine, error) {
		return lsm.Open(fmt.Sprintf("bench/inst-%02d", id), lsm.RocksDBOptions(fs))
	})
	opts.Workers, opts.DirectReads = 4, direct
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
