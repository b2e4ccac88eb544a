package core

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

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
//	this tree      0      0       0      1        6   callback requests pooled too, the
//	                                                  one op inline in the request, the
//	                                                  engine batch header in the worker
//
// The single-key pins (1 each) leave one allocation of slack over that;
// GetAsync's one is the closure that adapts its two-argument callback.
// WriteCtx keeps the pin of 3bb6c95: its legs are read by the submitter after
// completion, so they are not pooled, and the split builds a map.
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
		{"WriteCtx8", 10, func() error { return s.WriteCtx(nil, &batch) }},
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
// with reads set, every Get (a read stalled on its device).
type gatedNop struct {
	nopEngine
	reads         bool
	entered, gate chan struct{}
	closed        atomic.Bool
}

func newGatedNop(reads bool) *gatedNop {
	return &gatedNop{nopEngine: nopEngine{val: []byte("v")}, reads: reads, entered: make(chan struct{}, 1), gate: make(chan struct{})}
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

func (e *gatedNop) Write(*kv.Batch) error { e.park(!e.reads); return nil }

func (e *gatedNop) Get([]byte) ([]byte, error) { e.park(e.reads); return e.val, nil }

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
