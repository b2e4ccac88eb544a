package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"p2kvs/internal/kv"
)

// stubEngine is an in-memory engine with op counters and a blockable
// write path, used to prove lifecycle properties ("the engine was never
// touched", "a wedged engine cannot hang Close") deterministically.
type stubEngine struct {
	mu   sync.Mutex
	data map[string]string

	gets atomic.Int64
	puts atomic.Int64

	// entered counts write calls that began (possibly still blocked on
	// gate) — how tests detect that the worker is wedged in the engine.
	entered atomic.Int64

	// gate, when non-nil, blocks every Put/Delete until closed —
	// simulating an engine wedged on a stalled device.
	gate chan struct{}
}

func newStubEngine(gate chan struct{}) *stubEngine {
	return &stubEngine{data: make(map[string]string), gate: gate}
}

func (e *stubEngine) Put(key, value []byte) error {
	e.entered.Add(1)
	if e.gate != nil {
		<-e.gate
	}
	e.puts.Add(1)
	e.mu.Lock()
	e.data[string(key)] = string(value)
	e.mu.Unlock()
	return nil
}

func (e *stubEngine) Get(key []byte) ([]byte, error) {
	e.gets.Add(1)
	e.mu.Lock()
	defer e.mu.Unlock()
	v, ok := e.data[string(key)]
	if !ok {
		return nil, kv.ErrNotFound
	}
	return []byte(v), nil
}

func (e *stubEngine) Delete(key []byte) error {
	e.entered.Add(1)
	if e.gate != nil {
		<-e.gate
	}
	e.puts.Add(1)
	e.mu.Lock()
	delete(e.data, string(key))
	e.mu.Unlock()
	return nil
}

func (e *stubEngine) NewIterator() (kv.Iterator, error) {
	e.mu.Lock()
	keys := make([]string, 0, len(e.data))
	for k := range e.data {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	snap := make(map[string]string, len(e.data))
	for k, v := range e.data {
		snap[k] = v
	}
	e.mu.Unlock()
	return &stubIter{keys: keys, data: snap, pos: -1}, nil
}

func (e *stubEngine) Flush() error { return nil }
func (e *stubEngine) Close() error { return nil }

type stubIter struct {
	keys []string
	data map[string]string
	pos  int
}

func (it *stubIter) Valid() bool { return it.pos >= 0 && it.pos < len(it.keys) }
func (it *stubIter) SeekToFirst() {
	it.pos = 0
}
func (it *stubIter) Seek(target []byte) {
	it.pos = sort.SearchStrings(it.keys, string(target))
}
func (it *stubIter) Next()         { it.pos++ }
func (it *stubIter) Key() []byte   { return []byte(it.keys[it.pos]) }
func (it *stubIter) Value() []byte { return []byte(it.data[it.keys[it.pos]]) }
func (it *stubIter) Error() error  { return nil }
func (it *stubIter) Close() error  { return nil }

// firstByteMod partitions on the key's first byte, so tests can aim
// requests at a specific shard deterministically.
type firstByteMod struct{ n int }

func (p firstByteMod) Pick(key []byte) int {
	if len(key) == 0 {
		return 0
	}
	return int(key[0]-'0') % p.n
}
func (p firstByteMod) N() int { return p.n }

// openStubStore builds a store over stub engines. gates[i], when non-nil,
// wedges shard i's writes until closed.
func openStubStore(t *testing.T, workers int, gates map[int]chan struct{}, tune func(*Options)) (*Store, []*stubEngine) {
	t.Helper()
	engines := make([]*stubEngine, workers)
	opts := DefaultOptions(func(id int, _ func(uint64) bool) (kv.Engine, error) {
		engines[id] = newStubEngine(gates[id])
		return engines[id], nil
	})
	opts.Workers = workers
	opts.Partitioner = firstByteMod{n: workers}
	if tune != nil {
		tune(&opts)
	}
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	return s, engines
}

// shardKey returns the i-th key that firstByteMod routes to the given
// shard.
func shardKey(shard, i int) []byte {
	return []byte(fmt.Sprintf("%d-key-%04d", shard, i))
}

// putCtx is a one-key write bounded by ctx, by the path Put takes.
func putCtx(s *Store, ctx context.Context, key, value []byte) error {
	return s.writeOne(ctx, kv.BatchOp{Kind: kv.OpPut, Key: key, Value: value}, nil)
}

// TestAdmitRejectHotShard is the overload acceptance test: with
// AdmitReject and a flood aimed at one wedged hot shard, requests to the
// other shards keep completing with bounded queue wait, and hot-shard
// overflow returns kv.ErrOverloaded without ever blocking the caller.
func TestAdmitRejectHotShard(t *testing.T) {
	const workers = 3
	gate := make(chan struct{})
	s, engines := openStubStore(t, workers, map[int]chan struct{}{0: gate}, func(o *Options) {
		o.QueueDepth = 8
		o.Admission = AdmitReject
		o.DrainTimeout = 2 * time.Second
	})
	defer func() {
		s.Close()
	}()

	// Wedge shard 0's worker inside the engine, then flood: the queue
	// fills and admission must start bouncing with ErrOverloaded.
	var rejected int
	var acks sync.WaitGroup
	acks.Add(1)
	if err := s.PutAsync(shardKey(0, 999), []byte("v"), func(error) { acks.Done() }); err != nil {
		t.Fatal(err)
	}
	waitWedged(t, engines[0], 1)
	for i := 0; i < 64; i++ {
		acks.Add(1)
		err := s.PutAsync(shardKey(0, i), []byte("v"), func(error) { acks.Done() })
		if err != nil {
			acks.Done()
			if !errors.Is(err, kv.ErrOverloaded) {
				t.Fatalf("flood put %d: err = %v, want ErrOverloaded", i, err)
			}
			rejected++
		}
	}
	if rejected == 0 {
		t.Fatal("no request was rejected although the hot shard is wedged")
	}

	// Other shards stay fully available, with bounded per-op time.
	for shard := 1; shard < workers; shard++ {
		for i := 0; i < 50; i++ {
			start := time.Now()
			if err := s.Put(shardKey(shard, i), []byte("v")); err != nil {
				t.Fatalf("healthy shard %d put: %v", shard, err)
			}
			if d := time.Since(start); d > 5*time.Second {
				t.Fatalf("healthy shard %d put took %v", shard, d)
			}
		}
	}
	if v, err := s.Get(shardKey(1, 7)); err != nil || string(v) != "v" {
		t.Fatalf("healthy shard get = %q, %v", v, err)
	}

	st := s.Stats()
	if st[0].Rejected == 0 {
		t.Fatal("shard 0 Rejected counter is zero")
	}
	if st[0].QueueHighWater != 8 {
		t.Fatalf("shard 0 queue high-water = %d, want 8", st[0].QueueHighWater)
	}
	if engines[1].puts.Load() == 0 || engines[2].puts.Load() == 0 {
		t.Fatal("healthy shards executed nothing")
	}

	// Unwedge and let the flood drain so Close is clean.
	close(gate)
	acks.Wait()
}

// TestExpiredRequestsNeverReachEngine is the deadline acceptance test:
// requests whose context expires while queued are shed at dequeue —
// completed with kv.ErrDeadlineExceeded, engine op counters unchanged —
// and an already-expired context fails at admission without enqueueing.
func TestExpiredRequestsNeverReachEngine(t *testing.T) {
	gate := make(chan struct{})
	s, engines := openStubStore(t, 1, map[int]chan struct{}{0: gate}, func(o *Options) {
		o.QueueDepth = 64
	})
	defer s.Close()

	// Wedge the worker with one long-running write (no ctx).
	var wedge sync.WaitGroup
	wedge.Add(1)
	if err := s.PutAsync(shardKey(0, 0), []byte("v"), func(error) { wedge.Done() }); err != nil {
		t.Fatal(err)
	}
	waitWedged(t, engines[0], 1)

	// Already-expired context: fails at admission, never enters the queue.
	expiredCtx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := putCtx(s, expiredCtx, shardKey(0, 1), []byte("x")); !errors.Is(err, kv.ErrDeadlineExceeded) {
		t.Fatalf("expired-ctx put err = %v, want ErrDeadlineExceeded", err)
	}
	if !errors.Is(ctxError(context.Canceled), context.Canceled) {
		t.Fatal("ctxError must preserve the context cause")
	}

	// Requests that expire while queued behind the wedge: the sync caller
	// unblocks at its deadline, and the worker sheds the orphans later.
	const n = 10
	var callerErrs [n]error
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
			defer cancel()
			_, callerErrs[i] = s.GetCtx(ctx, shardKey(0, 100+i))
		}(i)
	}
	wg.Wait()
	for i, err := range callerErrs {
		if !errors.Is(err, kv.ErrDeadlineExceeded) {
			t.Fatalf("queued get %d err = %v, want ErrDeadlineExceeded", i, err)
		}
	}

	// Unwedge; the worker must shed every expired read without running it.
	close(gate)
	wedge.Wait()
	deadline := time.Now().Add(5 * time.Second)
	for s.Stats()[0].Shed < n {
		if time.Now().After(deadline) {
			t.Fatalf("worker shed %d requests, want %d", s.Stats()[0].Shed, n)
		}
		time.Sleep(time.Millisecond)
	}
	if got := engines[0].gets.Load(); got != 0 {
		t.Fatalf("engine executed %d gets; expired requests must never reach it", got)
	}
	if puts := engines[0].puts.Load(); puts != 1 {
		t.Fatalf("engine executed %d puts, want only the wedge put", puts)
	}
	st := s.Stats()[0]
	if st.Expired < n {
		t.Fatalf("Expired counter = %d, want >= %d", st.Expired, n)
	}
}

// TestAdmitBlockBoundedByDeadline: under AdmitBlock a full queue holds the
// submitter only as long as its deadline; it fails at the deadline, not
// forever.
func TestAdmitBlockBoundedByDeadline(t *testing.T) {
	gate := make(chan struct{})
	s, engines := openStubStore(t, 1, map[int]chan struct{}{0: gate}, func(o *Options) {
		o.QueueDepth = 1
		o.Admission = AdmitBlock
		o.DrainTimeout = 2 * time.Second
	})
	defer func() {
		close(gate)
		s.Close()
	}()

	// Fill: one wedged in the engine, one in the queue.
	if err := s.PutAsync(shardKey(0, 0), []byte("v"), func(error) {}); err != nil {
		t.Fatal(err)
	}
	waitWedged(t, engines[0], 1)
	if err := s.PutAsync(shardKey(0, 1), []byte("v"), func(error) {}); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := putCtx(s, ctx, shardKey(0, 3), []byte("v"))
	if !errors.Is(err, kv.ErrDeadlineExceeded) {
		t.Fatalf("deadline put err = %v, want ErrDeadlineExceeded", err)
	}
	if d := time.Since(start); d < 30*time.Millisecond || d > 5*time.Second {
		t.Fatalf("bounded wait lasted %v", d)
	}
	if st := s.Stats()[0]; st.Rejected != 0 || st.Expired != 1 {
		t.Fatalf("a blocked put that timed out counts as expired, not rejected: %+v", st)
	}
}

// TestCloseDrainDeadline is the graceful-drain acceptance test: Close
// with a drain deadline returns even though a wedged engine never lets
// the worker finish, and every still-queued request completes with
// kv.ErrClosed.
func TestCloseDrainDeadline(t *testing.T) {
	gate := make(chan struct{})
	s, engines := openStubStore(t, 2, map[int]chan struct{}{0: gate}, func(o *Options) {
		o.QueueDepth = 32
		o.DrainTimeout = 100 * time.Millisecond
	})
	defer close(gate) // release the abandoned worker at test end

	// Wedge shard 0 and queue requests behind the wedge.
	if err := s.PutAsync(shardKey(0, 0), []byte("v"), func(error) {}); err != nil {
		t.Fatal(err)
	}
	waitWedged(t, engines[0], 1)
	const queued = 8
	errs := make(chan error, queued)
	for i := 1; i <= queued; i++ {
		if err := s.PutAsync(shardKey(0, i), []byte("v"), func(err error) { errs <- err }); err != nil {
			t.Fatal(err)
		}
	}
	// Shard 1 is healthy; it must close cleanly.
	if err := s.Put(shardKey(1, 0), []byte("v")); err != nil {
		t.Fatal(err)
	}

	start := time.Now()
	closeErr := s.Close()
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("Close took %v despite drain deadline", d)
	}
	if !errors.Is(closeErr, kv.ErrClosed) {
		t.Fatalf("Close err = %v, want wedge report wrapping ErrClosed", closeErr)
	}
	for i := 0; i < queued; i++ {
		select {
		case err := <-errs:
			if !errors.Is(err, kv.ErrClosed) {
				t.Fatalf("queued request err = %v, want ErrClosed", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("queued request never completed after drain deadline")
		}
	}
	if st := s.Stats()[0]; st.Shed < queued {
		t.Fatalf("drain shed %d, want >= %d", st.Shed, queued)
	}
}

// TestCtxAPIHappyPath: the context variants behave exactly like their
// context-free counterparts when the context never expires.
func TestCtxAPIHappyPath(t *testing.T) {
	s, _ := openStubStore(t, 2, nil, nil)
	defer s.Close()
	ctx := context.Background()

	if err := putCtx(s, ctx, []byte("0-a"), []byte("1")); err != nil {
		t.Fatal(err)
	}
	if err := putCtx(s, ctx, []byte("1-b"), []byte("2")); err != nil {
		t.Fatal(err)
	}
	if v, err := s.GetCtx(ctx, []byte("0-a")); err != nil || string(v) != "1" {
		t.Fatalf("GetCtx = %q, %v", v, err)
	}
	if _, err := s.GetCtx(ctx, []byte("0-missing")); !errors.Is(err, kv.ErrNotFound) {
		t.Fatalf("GetCtx miss = %v", err)
	}
	if err := s.Delete([]byte("1-b")); err != nil {
		t.Fatal(err)
	}
	vals, err := s.MultiGetCtx(ctx, [][]byte{[]byte("0-a"), []byte("1-b")})
	if err != nil || string(vals[0]) != "1" || vals[1] != nil {
		t.Fatalf("MultiGetCtx = %q, %v", vals, err)
	}
	pairs, err := s.ScanCtx(ctx, []byte("0-a"), 1)
	if err != nil || len(pairs) != 1 || !bytes.Equal(pairs[0].Value, []byte("1")) {
		t.Fatalf("ScanCtx = %v, %v", pairs, err)
	}
	if pairs, err = s.ScanCtx(ctx, nil, 10); err != nil || len(pairs) != 1 {
		t.Fatalf("ScanCtx = %v, %v", pairs, err)
	}
}

// TestCtxAPIExpired: every context variant fails fast with
// kv.ErrDeadlineExceeded on an already-dead context.
func TestCtxAPIExpired(t *testing.T) {
	s, engines := openStubStore(t, 2, nil, nil)
	defer s.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	if err := putCtx(s, ctx, []byte("0-a"), []byte("1")); !errors.Is(err, kv.ErrDeadlineExceeded) {
		t.Fatalf("putCtx = %v", err)
	}
	if _, err := s.GetCtx(ctx, []byte("0-a")); !errors.Is(err, kv.ErrDeadlineExceeded) {
		t.Fatalf("GetCtx = %v", err)
	}
	var del kv.Batch
	del.Delete([]byte("0-a"))
	if err := s.WriteCtx(ctx, &del); !errors.Is(err, kv.ErrDeadlineExceeded) {
		t.Fatalf("WriteCtx = %v", err)
	}
	if _, err := s.ScanCtx(ctx, nil, 5); !errors.Is(err, kv.ErrDeadlineExceeded) {
		t.Fatalf("ScanCtx = %v", err)
	}
	if _, err := s.MultiGetCtx(ctx, [][]byte{[]byte("0-a")}); !errors.Is(err, kv.ErrDeadlineExceeded) {
		t.Fatalf("MultiGetCtx = %v", err)
	}
	if got := engines[0].gets.Load() + engines[0].puts.Load() + engines[1].gets.Load() + engines[1].puts.Load(); got != 0 {
		t.Fatalf("engines executed %d ops under a dead context", got)
	}
}

// TestWriteCtxSharedDeadline: all legs of a cross-partition transaction
// share one context — an expired context stops the transaction before
// begin, and a mid-flight deadline bounds the wait.
func TestWriteCtxSharedDeadline(t *testing.T) {
	gate := make(chan struct{})
	s, _ := openStubStore(t, 2, map[int]chan struct{}{0: gate}, func(o *Options) {
		o.QueueDepth = 16
		o.DrainTimeout = time.Second
	})
	// The stub store has no TxnFS, so cross-partition batches without a
	// transaction log must fail regardless of context.
	var b kv.Batch
	b.Put([]byte("0-a"), []byte("1"))
	b.Put([]byte("1-b"), []byte("2"))
	if err := s.WriteCtx(context.Background(), &b); err == nil {
		t.Fatal("cross-partition write without TxnFS must fail")
	}
	// Single-partition batch under a dead context never runs.
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	var one kv.Batch
	one.Put([]byte("1-a"), []byte("1"))
	if err := s.WriteCtx(dead, &one); !errors.Is(err, kv.ErrDeadlineExceeded) {
		t.Fatalf("single-partition WriteCtx = %v", err)
	}
	// Single-partition batch aimed at the wedged shard: deadline bounds
	// the sync wait.
	ctx, cancel2 := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel2()
	var wedgeBatch kv.Batch
	wedgeBatch.Put([]byte("0-z"), []byte("1"))
	if err := s.WriteCtx(ctx, &wedgeBatch); !errors.Is(err, kv.ErrDeadlineExceeded) {
		t.Fatalf("wedged-shard WriteCtx = %v", err)
	}
	close(gate)
	s.Close()
}

// waitWedged blocks until the engine has begun (and is stuck inside) at
// least n write calls.
func waitWedged(t *testing.T, e *stubEngine, n int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for e.entered.Load() < n {
		if time.Now().After(deadline) {
			t.Fatalf("engine entered %d writes, want %d", e.entered.Load(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestClosedStoreServesNoHotKey: a closed store refuses every read form with
// kv.ErrClosed, for a key resident in the hot cache exactly as for one that
// is not — the cache sits above the queues, so admission alone cannot say so.
func TestClosedStoreServesNoHotKey(t *testing.T) {
	s, _ := openStubStore(t, 2, nil, func(o *Options) { o.HotCacheBytes = 1 << 20 })
	hot, cold := shardKey(0, 1), shardKey(1, 1)
	if err := s.Put(hot, []byte("hot-value")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ { // the first read fills, the second must hit
		if v, err := s.Get(hot); err != nil || string(v) != "hot-value" {
			t.Fatalf("Get(hot) = %q, %v", v, err)
		}
	}
	if hits := s.StatsSnapshot().CacheHits; hits == 0 {
		t.Fatal("hot key not resident before Close")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for _, key := range [][]byte{hot, cold} {
		if v, err := s.Get(key); err != kv.ErrClosed {
			t.Errorf("Get(%s) after Close = %q, %v; want kv.ErrClosed", key, v, err)
		}
		ran := false
		if err := s.GetAsync(key, func([]byte, error) { ran = true }); err != kv.ErrClosed || ran {
			t.Errorf("GetAsync(%s) after Close = %v, callback ran = %v; want kv.ErrClosed and no callback", key, err, ran)
		}
		if vals, err := s.MultiGet([][]byte{key}); err != kv.ErrClosed {
			t.Errorf("MultiGet(%s) after Close = %q, %v; want kv.ErrClosed", key, vals, err)
		}
	}
}

// TestCloseDrainDeadlineDirectRead: a direct read runs under the routing
// read lock, and Close passes through the write side before it closes an
// engine. With a drain deadline that wait is bounded: a caller wedged inside
// an engine read cannot hang Close, any more than a wedged worker can — and,
// as with a wedged worker, Close reports it and the engine is closed only
// once the call has returned, never under it.
func TestCloseDrainDeadlineDirectRead(t *testing.T) {
	closeBehindDirect(t, true)
}

// TestCloseDrainDeadlineDirectWrite is the same for a direct write wedged
// inside its engine's commit: it holds the routing read lock too, and Close
// behaves exactly as it does behind a direct read.
func TestCloseDrainDeadlineDirectWrite(t *testing.T) {
	closeBehindDirect(t, false)
}

// closeBehindDirect wedges one direct call — a Get when read, else a Put —
// inside a gated engine, closes the store under a 50 ms DrainTimeout and
// checks that Close reports the wedge without closing the engine under the
// call, which then completes, and that the engine closes after it.
func closeBehindDirect(t *testing.T, read bool) {
	eng := newGatedNop(read)
	opts := DefaultOptions(func(int, func(uint64) bool) (kv.Engine, error) { return eng, nil })
	opts.Workers = 1
	opts.DrainTimeout = 50 * time.Millisecond
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan error, 1)
	go func() {
		var err error
		if read {
			_, err = s.Get([]byte("k"))
		} else {
			err = s.Put([]byte("k"), []byte("v"))
		}
		got <- err
	}()
	<-eng.entered // the caller is inside the engine, under routeMu.RLock
	closed := make(chan error, 1)
	go func() { closed <- s.Close() }()
	select {
	case err := <-closed:
		if !errors.Is(err, kv.ErrClosed) || !strings.Contains(err.Error(), "drain deadline") {
			t.Errorf("Close = %v; want the wedge reported", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung behind a direct call wedged in the engine, DrainTimeout set")
	}
	if eng.closed.Load() {
		t.Error("engine closed under the call still inside it")
	}
	close(eng.gate)
	if err := <-got; err != nil {
		t.Errorf("the wedged call, released after Close = %v", err)
	}
	for start := time.Now(); !eng.closed.Load(); time.Sleep(time.Millisecond) {
		if time.Since(start) > 5*time.Second {
			t.Fatal("engine never closed after the wedged call returned")
		}
	}
	st := s.Stats()[0]
	if direct := map[bool]int64{true: st.DirectReads, false: st.DirectWrites}[read]; direct != 1 || st.Ops != 0 {
		t.Errorf("direct reads %d, direct writes %d, worker ops %d; want the one wedged call direct", st.DirectReads, st.DirectWrites, st.Ops)
	}
}
