package core

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"p2kvs/internal/kv"
	"p2kvs/internal/lsm"
	"p2kvs/internal/raceflag"
	"p2kvs/internal/vfs"
)

// nopEngine does no work and allocates nothing, so every allocation the
// pins below count happens above the engine: in the accessing layer's
// routing, admission, queue, worker and completion code.
type nopEngine struct{ val []byte }

func (e *nopEngine) Put(key, value []byte) error    { return nil }
func (e *nopEngine) Get(key []byte) ([]byte, error) { return e.val, nil }
func (e *nopEngine) Delete(key []byte) error        { return nil }
func (e *nopEngine) Write(b *kv.Batch) error        { return nil }
func (e *nopEngine) Caps() kv.Caps                  { return kv.Caps{BatchWrite: true} }
func (e *nopEngine) Flush() error                   { return nil }
func (e *nopEngine) Close() error                   { return nil }
func (e *nopEngine) NewIterator() (kv.Iterator, error) {
	return nil, errors.New("nopEngine: no iterator")
}

// TestAllocsAboveEngine pins what one request costs above the engine, so
// the request representation cannot silently grow back. What each tree
// measured, same engine and options throughout:
//
//	              Put  PutAsync  Get  GetAsync  WriteCtx(8 ops, one shard)
//	bcf5110        6      5       3      -       15   a write re-represented four times
//	3bb6c95        5      4       3      -       10   one request shape
//	a1e88e3        2      3       0      -        7   sync requests pooled with their
//	                                                  completion channel; the worker
//	                                                  owns its batch slice
//	02546c0        0      0       0      1        6   callback requests pooled too, the
//	                                                  one op inline in the request, the
//	                                                  engine batch header in the worker
//	this tree      0      0       0      1        0   a one-partition batch is not split:
//	                                                  its ops go as is in one pooled request
//
// The pins (1 each) leave one allocation of slack over that; GetAsync's one
// is the closure that adapts its two-argument callback. A write spanning
// partitions is pinned by TestWriteEachCtxAllocs.
// AllocsPerRun counts every goroutine's allocations, the worker's included.
func TestAllocsAboveEngine(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation pins are not meaningful under the race detector: sync.Pool drops Puts there")
	}
	opts := DefaultOptions(func(int, func(uint64) bool) (kv.Engine, error) {
		return &nopEngine{val: []byte("v")}, nil
	})
	opts.Workers = 1
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	key, val := []byte("alloc-key"), []byte("alloc-value")
	var batch kv.Batch
	for i := 0; i < 8; i++ {
		batch.Put([]byte{'k', byte('0' + i)}, val)
	}
	acked := make(chan error, 1)
	ack := func(err error) { acked <- err }
	getAck := func(_ []byte, err error) { acked <- err }

	for _, c := range []struct {
		name string
		max  float64
		op   func() error
	}{
		{"Put", 1, func() error { return s.Put(key, val) }},
		{"PutAsync", 1, func() error {
			if err := s.PutAsync(key, val, ack); err != nil {
				return err
			}
			return <-acked
		}},
		{"Get", 1, func() error { _, err := s.Get(key); return err }},
		{"GetAsync", 1, func() error {
			if err := s.GetAsync(key, getAck); err != nil {
				return err
			}
			return <-acked
		}},
		{"WriteCtx8", 1, func() error { return s.WriteCtx(nil, &batch) }},
	} {
		var opErr error
		got := testing.AllocsPerRun(200, func() {
			if err := c.op(); err != nil {
				opErr = err
			}
		})
		if opErr != nil {
			t.Fatalf("%s: %v", c.name, opErr)
		}
		t.Logf("%s: %.0f allocs/op above the engine", c.name, got)
		if got > c.max {
			t.Errorf("%s: %.0f allocs/op above the engine, pinned at %.0f", c.name, got, c.max)
		}
	}
}

// TestDegradedErrAllocs pins the write-admission gate: every write asks its
// worker's engine for Health, which on a healthy lsm reads atomics only.
func TestDegradedErrAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation pins are not meaningful under the race detector")
	}
	db, err := lsm.Open("db", lsm.RocksDBOptions(vfs.NewMem()))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	w := &worker{}
	w.hr = db
	var gate error
	if n := testing.AllocsPerRun(200, func() { gate = w.degradedErr() }); n != 0 || gate != nil {
		t.Errorf("degradedErr over a healthy lsm: %.0f allocs, gate %v; want 0, nil", n, gate)
	}
}

// gatedNop is nopEngine with one operation parked until gate closes, each
// arrival announced on entered: every Write (a worker wedged mid-apply), or,
// with reads set, every Get (a read stalled on its device). Its per-call form
// (newHeldNop) parks no call by default: a Write keeps its last op's value and
// a Get returns the kept one, and a call parks only at a point a hold was
// queued for (hold), announced on entered.
type gatedNop struct {
	nopEngine
	reads         bool
	entered, gate chan struct{}
	closed        atomic.Bool
	holds         [3]chan chan struct{} // per hold point, the next call's release
	kept          atomic.Pointer[[]byte]
}

// The hold points of a gatedNop's per-call form.
const (
	holdGetEntry = iota // a Get, before it reads the kept value
	holdGetExit         // a Get, with the kept value read, before it returns
	holdApplied         // a Write, with its value kept, before it returns
)

func newGatedNop(reads bool) *gatedNop {
	return &gatedNop{nopEngine: nopEngine{val: []byte("v")}, reads: reads, entered: make(chan struct{}, 1), gate: make(chan struct{})}
}

func newHeldNop(initial []byte) *gatedNop {
	e := &gatedNop{entered: make(chan struct{}, 1)}
	for i := range e.holds {
		e.holds[i] = make(chan chan struct{}, 1)
	}
	e.kept.Store(&initial)
	return e
}

// hold parks the next call to reach point at until release is called.
func (e *gatedNop) hold(at int) (release func()) {
	ch := make(chan struct{})
	e.holds[at] <- ch
	return sync.OnceFunc(func() { close(ch) })
}

func (e *gatedNop) at(point int) {
	select {
	case ch := <-e.holds[point]:
		e.entered <- struct{}{}
		<-ch
	default:
	}
}

func (e *gatedNop) park(parks bool) {
	if parks {
		select {
		case e.entered <- struct{}{}:
		default: // already announced and not collected: arrivals past the open gate
		}
		<-e.gate
	}
}

func (e *gatedNop) Write(b *kv.Batch) error {
	if e.holds[0] == nil {
		e.park(!e.reads)
		return nil
	}
	ops := b.Ops()
	v := append([]byte(nil), ops[len(ops)-1].Value...)
	e.kept.Store(&v)
	e.at(holdApplied)
	return nil
}

func (e *gatedNop) Get([]byte) ([]byte, error) {
	if e.holds[0] == nil {
		e.park(e.reads)
		return e.val, nil
	}
	e.at(holdGetEntry)
	v := append([]byte(nil), *e.kept.Load()...)
	e.at(holdGetExit)
	return v, nil
}

func (e *gatedNop) Close() error { e.closed.Store(true); return nil }

// TestDirectReadAllocs pins the direct read's cost and its rule. On an idle
// worker a Get allocates nothing above the engine and touches no pooled
// request: the caller ran the read itself. With one write parked in the
// worker the same call takes the queue — a pooled request goes round — and
// returns only once the worker has reached it.
func TestDirectReadAllocs(t *testing.T) {
	eng := newGatedNop(false)
	opts := DefaultOptions(func(int, func(uint64) bool) (kv.Engine, error) { return eng, nil })
	opts.Workers = 1
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	release := sync.OnceFunc(func() { close(eng.gate) })
	defer release() // before Close, whichever way the test ends: the worker may be parked on the gate
	var recycled atomic.Int64
	hook := func(*request) { recycled.Add(1) }
	recycleHook.Store(&hook)
	defer recycleHook.Store(nil)
	key := []byte("alloc-key")
	get := func() {
		if _, err := s.Get(key); err != nil {
			t.Error(err)
		}
	}

	if raceflag.Enabled {
		get()
	} else if n := testing.AllocsPerRun(200, get); n != 0 {
		t.Errorf("Get on an idle worker: %.0f allocs/op above the engine, pinned at 0", n)
	}
	direct := s.Stats()[0].DirectReads
	if direct == 0 || recycled.Load() != 0 || s.Stats()[0].Ops != 0 {
		t.Fatalf("idle worker: %d direct reads, %d requests recycled, %d ops on the worker; want every Get direct",
			direct, recycled.Load(), s.Stats()[0].Ops)
	}

	if err := s.PutAsync(key, []byte("w"), func(error) {}); err != nil {
		t.Fatal(err)
	}
	<-eng.entered // the worker is inside the engine with the write
	got := make(chan struct{})
	go func() { get(); close(got) }()
	for s.ws()[0].q.pending.Load() != 2 { // the parked write and the queued read
		select {
		case <-got:
			t.Fatal("Get returned while a write submitted before it was unapplied")
		default:
			runtime.Gosched()
		}
	}
	release()
	<-got
	if st := s.Stats()[0]; st.DirectReads != direct || st.Ops != 2 {
		t.Errorf("busy worker: direct reads %d -> %d, worker ops %d; want the Get queued behind the write", direct, st.DirectReads, st.Ops)
	}
	for recycled.Load() != 2 { // the callback write's request and the read's
		runtime.Gosched()
	}
}

// multiGetEngine is nopEngine with a multiget that allocates the values it
// returns and nothing else: its result slice is reused, which its callers
// allow as long as one runs at a time — each copies the results out before
// the next call.
type multiGetEngine struct {
	nopEngine
	out [][]byte
}

func (e *multiGetEngine) Caps() kv.Caps { return kv.Caps{BatchWrite: true, MultiGet: true} }

func (e *multiGetEngine) MultiGet(keys [][]byte) ([][]byte, error) {
	e.out = e.out[:0]
	for range keys {
		e.out = append(e.out, append([]byte(nil), e.val...))
	}
	return e.out, nil
}

// TestMultiGetCtxAllocs pins MultiGetCtx in steady state, on both paths:
// its fan-in, its legs, the legs' completion callback and a direct leg's
// scratch come from pools, so a call allocates the slice it returns and,
// through the engine, the values — whether the idle worker's leg runs on
// the caller or, under a deadline, queues.
func TestMultiGetCtxAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation pins are not meaningful under the race detector: sync.Pool drops Puts there")
	}
	opts := DefaultOptions(func(int, func(uint64) bool) (kv.Engine, error) {
		return &multiGetEngine{nopEngine: nopEngine{val: []byte("v")}}, nil
	})
	opts.Workers = 1
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	keys := make([][]byte, 16)
	for i := range keys {
		keys[i] = []byte{'k', byte('a' + i)}
	}
	deadline, cancel := context.WithTimeout(context.Background(), time.Hour)
	defer cancel()
	for _, c := range []struct {
		name string
		ctx  context.Context
	}{{"direct", nil}, {"queued", deadline}} {
		before := s.Stats()[0]
		n := testing.AllocsPerRun(200, func() {
			vals, err := s.MultiGetCtx(c.ctx, keys)
			if err != nil || len(vals) != len(keys) || string(vals[len(keys)-1]) != "v" {
				t.Fatalf("%s: MultiGetCtx = %q, %v", c.name, vals, err)
			}
		})
		after := s.Stats()[0]
		if queued := after.Ops > before.Ops; queued != (c.ctx != nil) || queued == (after.DirectReads > before.DirectReads) {
			t.Fatalf("%s: worker ops %d -> %d, direct reads %d -> %d: the call took the other path",
				c.name, before.Ops, after.Ops, before.DirectReads, after.DirectReads)
		}
		if after.MultiGetOps == before.MultiGetOps {
			t.Fatalf("%s: no leg reached the engine's multiget", c.name)
		}
		if want := float64(1 + len(keys)); n > want {
			t.Errorf("%s: MultiGetCtx of %d keys: %.0f allocs, want <= %.0f (the result slice and the values)", c.name, len(keys), n, want)
		}
	}
}

// TestWriteEachCtxAllocs pins WriteEachCtx in steady state, on both paths,
// as TestMultiGetCtxAllocs does for reads: 16 ops over four workers, whose
// legs, per-worker op lists and fan-in come from the leg set's pools —
// whether each idle worker's leg is committed on the caller or, under a
// deadline, queued. Before the legs were pooled the call allocated 20 times
// on either path: the split's leg slice, a request and an op slice per
// worker, the fan-in and its channel.
func TestWriteEachCtxAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation pins are not meaningful under the race detector: sync.Pool drops Puts there")
	}
	const workers = 4
	opts := DefaultOptions(func(int, func(uint64) bool) (kv.Engine, error) { return &nopEngine{}, nil })
	opts.Workers, opts.Partitioner = workers, firstByteMod{n: workers}
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var b kv.Batch
	for i := 0; i < 16; i++ {
		b.Put(shardKey(i%workers, i), []byte("v"))
	}
	errs := make([]error, b.Len())
	deadline, cancel := context.WithTimeout(context.Background(), time.Hour)
	defer cancel()
	sum := func(st []WorkerStats) (ops, direct int64) {
		for _, w := range st {
			ops, direct = ops+w.Ops, direct+w.DirectWrites
		}
		return ops, direct
	}
	for _, c := range []struct {
		name string
		ctx  context.Context
	}{{"direct", nil}, {"queued", deadline}} {
		ops0, direct0 := sum(s.Stats())
		n := testing.AllocsPerRun(200, func() {
			s.WriteEachCtx(c.ctx, &b, errs)
			if err := errors.Join(errs...); err != nil {
				t.Fatalf("%s: WriteEachCtx: %v", c.name, err)
			}
		})
		ops1, direct1 := sum(s.Stats())
		if queued := ops1 > ops0; queued != (c.ctx != nil) || queued == (direct1 > direct0) {
			t.Fatalf("%s: worker ops %d -> %d, direct writes %d -> %d: the call took the other path",
				c.name, ops0, ops1, direct0, direct1)
		}
		if n > 1 { // 0 measured; one of slack, as TestAllocsAboveEngine's pins
			t.Errorf("%s: WriteEachCtx of %d ops over %d workers: %.0f allocs, want <= 1", c.name, b.Len(), workers, n)
		}
	}
}

// TestMultiGetLegPaths pins where each leg of a multiget runs and what it
// counts. Two keys on each of four workers: on an idle store every leg runs
// on the caller — DirectReads and MultiGetOps grow by the key count, worker
// Ops do not move; with worker 0 wedged, its leg queues behind the wedge and
// the other three run on the caller; a live deadline queues every leg, and
// so does Direct off.
func TestMultiGetLegPaths(t *testing.T) {
	const workers, perShard = 4, 2
	var keys [][]byte
	for shard := 0; shard < workers; shard++ {
		for i := 0; i < perShard; i++ {
			keys = append(keys, shardKey(shard, i))
		}
	}
	open := func(t *testing.T, direct bool) *Store {
		opts := DefaultOptions(func(int, func(uint64) bool) (kv.Engine, error) {
			return &multiGetEngine{nopEngine: nopEngine{val: []byte("v")}}, nil
		})
		opts.Workers, opts.Partitioner, opts.Direct = workers, firstByteMod{n: workers}, direct
		s, err := Open(opts)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		return s
	}
	mget := func(t *testing.T, s *Store, ctx context.Context) {
		vals, err := s.MultiGetCtx(ctx, keys)
		if err != nil || len(vals) != len(keys) {
			t.Errorf("MultiGetCtx = %q, %v", vals, err)
			return
		}
		for i, v := range vals {
			if string(v) != "v" {
				t.Errorf("slot %d = %q, want v", i, v)
			}
		}
	}
	// check compares each worker's counters since before with want[i]:
	// direct reads, multiget keys (-1: not pinned), worker ops.
	check := func(t *testing.T, s *Store, before []WorkerStats, want [workers][3]int64) {
		t.Helper()
		for i, st := range s.Stats() {
			got := [3]int64{st.DirectReads - before[i].DirectReads, st.MultiGetOps - before[i].MultiGetOps, st.Ops - before[i].Ops}
			if want[i][1] < 0 {
				got[1] = -1
			}
			if got != want[i] {
				t.Errorf("worker %d: direct reads, multiget keys, ops grew by %v, want %v", i, got, want[i])
			}
		}
	}
	direct := [3]int64{perShard, perShard, 0}
	queued := [3]int64{0, -1, perShard}

	t.Run("idle", func(t *testing.T) {
		s := open(t, true)
		before := s.Stats()
		mget(t, s, nil)
		check(t, s, before, [workers][3]int64{direct, direct, direct, direct})
	})
	t.Run("wedged", func(t *testing.T) {
		s := open(t, true)
		entered, gate := make(chan struct{}), make(chan struct{})
		go s.ws()[0].do(func(*worker) error { close(entered); <-gate; return nil })
		<-entered
		before := s.Stats()
		done := make(chan struct{})
		go func() { mget(t, s, nil); close(done) }()
		for s.ws()[0].q.pending.Load() != 1+perShard { // the wedge and the leg behind it
			runtime.Gosched()
		}
		close(gate)
		<-done
		// Both reads were queued before the worker left the wedge (counted
		// in before: the worker counts a run as it starts it): one run, one
		// engine multiget.
		wedged := [3]int64{0, perShard, perShard}
		check(t, s, before, [workers][3]int64{wedged, direct, direct, direct})
	})
	t.Run("deadline", func(t *testing.T) {
		s := open(t, true)
		ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
		defer cancel()
		before := s.Stats()
		mget(t, s, ctx)
		check(t, s, before, [workers][3]int64{queued, queued, queued, queued})
	})
	t.Run("Direct=false", func(t *testing.T) {
		s := open(t, false)
		before := s.Stats()
		mget(t, s, nil)
		check(t, s, before, [workers][3]int64{queued, queued, queued, queued})
	})
}
