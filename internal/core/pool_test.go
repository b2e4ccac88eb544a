package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"p2kvs/internal/kv"
	"p2kvs/internal/vfs"
)

// echoEngine answers every Get with a value derived from the key, after a
// delay: a request that came back carrying another caller's key or value is
// visible at once.
type echoEngine struct {
	nopEngine
	delay time.Duration
}

func echoValue(key []byte) []byte { return append([]byte("value-of-"), key...) }

func (e *echoEngine) Get(key []byte) ([]byte, error) {
	time.Sleep(e.delay)
	return echoValue(key), nil
}

// TestAbandonedRequestNeverRecycled: a GetCtx whose deadline fires while its
// request is queued or executing walks away from that request — the worker
// still holds it — so it must never come back out of the pool under a second
// caller. Impatient callers (deadlines shorter than the engine's service
// time) and patient ones share one worker; every result a patient caller
// gets must be the value of the key it asked for, and under -race any reuse
// of a request the worker can still touch is a reported data race.
func TestAbandonedRequestNeverRecycled(t *testing.T) {
	opts := DefaultOptions(func(int, func(uint64) bool) (kv.Engine, error) {
		return &echoEngine{delay: 20 * time.Microsecond}, nil
	})
	opts.Workers = 1
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const impatient, patient, perCaller = 4, 4, 2500 // 10k short-deadline calls
	var (
		wg        sync.WaitGroup
		abandoned atomic.Int64
		served    atomic.Int64
	)
	for c := 0; c < impatient; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perCaller; i++ {
				key := []byte(fmt.Sprintf("impatient-%d-%d", c, i))
				ctx, cancel := context.WithTimeout(context.Background(), time.Duration(5+i%500)*time.Microsecond)
				v, err := s.GetCtx(ctx, key)
				cancel()
				switch {
				case err == nil:
					if !bytes.Equal(v, echoValue(key)) {
						t.Errorf("GetCtx(%s) = %q", key, v)
						return
					}
				case errors.Is(err, kv.ErrDeadlineExceeded):
					abandoned.Add(1)
				default:
					t.Errorf("GetCtx(%s): %v", key, err)
					return
				}
			}
		}(c)
	}
	for c := 0; c < patient; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perCaller/2; i++ {
				key := []byte(fmt.Sprintf("patient-%d-%d", c, i))
				v, err := s.Get(key)
				if err != nil || !bytes.Equal(v, echoValue(key)) {
					t.Errorf("Get(%s) = %q, %v", key, v, err)
					return
				}
				if i%8 == 0 { // sync writes share the pool
					if err := s.Put(key, v); err != nil {
						t.Errorf("Put(%s): %v", key, err)
						return
					}
				}
				served.Add(1)
			}
		}(c)
	}
	wg.Wait()
	if abandoned.Load() < impatient*perCaller/10 {
		t.Fatalf("only %d of %d short-deadline calls expired; the test did not exercise abandonment",
			abandoned.Load(), impatient*perCaller)
	}
	t.Logf("%d calls abandoned their request, %d patient calls verified", abandoned.Load(), served.Load())
}

// TestGetResultIsCallerOwned: scribbling on the slice Store.Get returned
// must not change what the next Get of that key returns — the second read is
// a block-cache hit, so this is the block cache's copy being protected.
func TestGetResultIsCallerOwned(t *testing.T) {
	s := openStore(t, vfs.NewMem(), 2)
	defer s.Close()
	key, val := []byte("owned-key"), []byte("the original value")
	if err := s.Put(key, val); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil { // out of the memtable, into a table
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		v, err := s.Get(key)
		if err != nil || !bytes.Equal(v, val) {
			t.Fatalf("read %d: Get = %q, %v", i, v, err)
		}
		for j := range v {
			v[j] = 'X'
		}
	}
}
