package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
	"unsafe"

	"p2kvs/internal/kv"
)

// TestRequestFootprint pins the size of the one queued shape, which every
// pooled Put, PutAsync and Get zeroes on recycle: a request is a read, a
// write or a closure, and a feature that needs the worker's goroutine
// submits a closure (worker.do) instead of adding a payload field here.
func TestRequestFootprint(t *testing.T) {
	if n := unsafe.Sizeof(request{}); n > 248 {
		t.Errorf("request is %d bytes, pinned at 248", n)
	}
}

// TestQueueConcurrentPushPop hammers one queue with many producers and a
// single consumer (the worker model) under a small capacity, so pushes
// constantly block on a full queue and popBatch constantly frees space.
// Run with -race: the waiter-channel handoff must be data-race free, every
// request must come out exactly once, and nothing may deadlock.
func TestQueueConcurrentPushPop(t *testing.T) {
	const (
		producers   = 8
		perProducer = 500
		capacity    = 4
	)
	q := newReqQueue(capacity)
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				r := &request{typ: reqWrite, key: []byte(fmt.Sprintf("%d-%d", p, i))}
				if q.pushWait(nil, r) != nil {
					t.Errorf("push failed on open queue")
					return
				}
			}
		}(p)
	}
	seen := make(map[string]bool)
	got := 0
	for got < producers*perProducer {
		batch, expired := q.popBatch(true, 32, nil)
		if len(expired) != 0 {
			t.Fatalf("no request carries a ctx, yet %d were shed", len(expired))
		}
		for _, r := range batch {
			k := string(r.key)
			if seen[k] {
				t.Fatalf("request %s dequeued twice", k)
			}
			seen[k] = true
			got++
		}
	}
	wg.Wait()
	if q.len() != 0 {
		t.Fatalf("queue not empty after consuming everything: %d left", q.len())
	}
	if hw := q.highWaterMark(); hw < 1 || hw > capacity {
		t.Fatalf("high-water mark %d outside [1, %d]", hw, capacity)
	}
}

// TestQueueBlockedPushWakesOnClose: a producer blocked on a full queue
// must wake (and fail) when the queue closes, not hang forever.
func TestQueueBlockedPushWakesOnClose(t *testing.T) {
	q := newReqQueue(1)
	if q.pushWait(nil, &request{typ: reqWrite}) != nil {
		t.Fatal("first push must succeed")
	}
	result := make(chan bool, 1)
	go func() {
		result <- q.pushWait(nil, &request{typ: reqWrite}) == nil // blocks: queue full
	}()
	// Give the producer time to actually block, then close.
	time.Sleep(10 * time.Millisecond)
	q.close()
	select {
	case ok := <-result:
		if ok {
			t.Fatal("push on closed queue reported success")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("blocked push never woke on close")
	}
}

// TestQueueBlockedPushWakesOnCtx: a producer blocked on a full queue must
// wake with kv.ErrDeadlineExceeded when its context expires, and the
// abandoned waiter must not leak (a later pop must not panic or hang).
func TestQueueBlockedPushWakesOnCtx(t *testing.T) {
	q := newReqQueue(1)
	q.pushWait(nil, &request{typ: reqWrite})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	errCh := make(chan error, 1)
	go func() {
		errCh <- q.pushWait(ctx.Done(), &request{typ: reqWrite})
	}()
	select {
	case err := <-errCh:
		if !errors.Is(err, kv.ErrDeadlineExceeded) {
			t.Fatalf("pushWait err = %v, want ErrDeadlineExceeded", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("blocked push never woke on ctx expiry")
	}
	if len(q.spaceWaiters) != 0 {
		t.Fatalf("%d abandoned space waiters leaked", len(q.spaceWaiters))
	}
	// The queue still functions after the aborted wait.
	if batch, _ := q.popBatch(false, 1, nil); len(batch) != 1 {
		t.Fatalf("pop after aborted wait = %d requests", len(batch))
	}
	if err := q.tryPush(&request{typ: reqWrite}); err != nil {
		t.Fatalf("tryPush after aborted wait: %v", err)
	}
}

func TestQueueTryPush(t *testing.T) {
	q := newReqQueue(2)
	for i := 0; i < 2; i++ {
		if err := q.tryPush(&request{typ: reqWrite}); err != nil {
			t.Fatalf("tryPush %d: %v", i, err)
		}
	}
	if err := q.tryPush(&request{typ: reqWrite}); !errors.Is(err, kv.ErrOverloaded) {
		t.Fatalf("tryPush on full queue = %v, want ErrOverloaded", err)
	}
	q.close()
	if err := q.tryPush(&request{typ: reqWrite}); !errors.Is(err, kv.ErrClosed) {
		t.Fatalf("tryPush on closed queue = %v, want ErrClosed", err)
	}
}

// TestQueueCompact drives the head-reclaim path and checks that items
// survive compaction intact and in order: pop enough singles that head
// crosses the compaction threshold while later items are still queued.
func TestQueueCompact(t *testing.T) {
	const total = 200
	q := newReqQueue(total + 64)
	for i := 0; i < total; i++ {
		q.pushWait(nil, &request{typ: reqWrite, key: []byte(fmt.Sprintf("k-%04d", i))})
	}
	// Pop the first 100 one at a time (OBM off): head passes 64 and
	// head*2 >= len(items), which must trigger compact().
	for i := 0; i < 100; i++ {
		batch, _ := q.popBatch(false, 1, nil)
		if len(batch) != 1 || string(batch[0].key) != fmt.Sprintf("k-%04d", i) {
			t.Fatalf("pop %d = %q", i, batch[0].key)
		}
	}
	if q.head != 0 {
		t.Fatalf("compact did not run: head = %d", q.head)
	}
	// Interleave new pushes with the compacted remainder; order must hold.
	for i := total; i < total+20; i++ {
		q.pushWait(nil, &request{typ: reqWrite, key: []byte(fmt.Sprintf("k-%04d", i))})
	}
	for i := 100; i < total+20; i++ {
		batch, _ := q.popBatch(false, 1, nil)
		if len(batch) != 1 || string(batch[0].key) != fmt.Sprintf("k-%04d", i) {
			t.Fatalf("post-compact pop %d = %q", i, batch[0].key)
		}
	}
	if q.len() != 0 {
		t.Fatalf("queue should be empty, has %d", q.len())
	}
}

// TestQueueShedsExpired: requests whose context ended while queued come
// back in popBatch's expired list — including mid-batch ones — and never
// join a batch.
func TestQueueShedsExpired(t *testing.T) {
	q := newReqQueue(16)
	live, dead := context.Background(), func() context.Context {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		return ctx
	}()
	mk := func(ctx context.Context, name string) *request {
		r := &request{typ: reqWrite, key: []byte(name)}
		if ctx.Done() != nil {
			r.ctx = ctx
		}
		return r
	}
	q.pushWait(nil, mk(dead, "h1"))  // expired at head
	q.pushWait(nil, mk(dead, "h2"))  // expired at head
	q.pushWait(nil, mk(live, "a"))   // live batch
	q.pushWait(nil, mk(dead, "mid")) // expired mid-batch
	q.pushWait(nil, mk(live, "b"))

	batch, expired := q.popBatch(true, 32, nil)
	if len(expired) != 3 {
		t.Fatalf("shed %d, want 3", len(expired))
	}
	if len(batch) != 2 || string(batch[0].key) != "a" || string(batch[1].key) != "b" {
		t.Fatalf("batch = %v", batch)
	}
	// A queue holding only expired work returns (nil, expired) and the
	// next call blocks for live work rather than spinning; verify via
	// close.
	q.pushWait(nil, mk(dead, "only"))
	batch, expired = q.popBatch(true, 32, nil)
	if batch != nil || len(expired) != 1 {
		t.Fatalf("expired-only pop = %v / %v", batch, expired)
	}
	q.close()
	if batch, expired = q.popBatch(true, 32, nil); batch != nil || expired != nil {
		t.Fatal("closed empty queue must return nil, nil")
	}
}

// TestQueueDrain: drain empties the queue and frees blocked producers.
func TestQueueDrain(t *testing.T) {
	q := newReqQueue(2)
	q.pushWait(nil, &request{typ: reqWrite, key: []byte("a")})
	q.pushWait(nil, &request{typ: reqWrite, key: []byte("b")})
	q.close()
	got := q.drain()
	if len(got) != 2 || string(got[0].key) != "a" || string(got[1].key) != "b" {
		t.Fatalf("drain = %v", got)
	}
	if q.len() != 0 || q.head != 0 {
		t.Fatalf("drain left len=%d head=%d", q.len(), q.head)
	}
	if q.drain() != nil && len(q.drain()) != 0 {
		t.Fatal("second drain must be empty")
	}
}
