package core

import (
	"errors"
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
