// Package core implements p2KVS itself — the paper's contribution: an
// accessing layer that hash-partitions the key space over N worker
// threads, each owning a private KVS instance, with a queue-based
// opportunistic batching mechanism (OBM, Algorithm 1) on every worker,
// synchronous and asynchronous request interfaces, parallel range
// queries, and GSN-based cross-instance transactions with crash recovery.
package core

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"p2kvs/internal/kv"
)

// reqType is the request-type OBM merges by: consecutive same-type
// requests form one batched request (§4.3); a closure never merges.
type reqType uint8

// Request types.
const (
	reqWrite reqType = iota // PUT / UPDATE / DELETE (always batchable together)
	reqRead                 // GET
	reqRun                  // a closure: a scan leg, a barrier, a control-plane write
)

// request is one unit of work in a worker queue: a data-plane read or write,
// which OBM may merge with its neighbours, or a closure (run), which the
// worker calls alone, on its own goroutine, in queue order.
type request struct {
	typ reqType

	// Write-type payload: one or more ops (a user WriteBatch keeps its
	// ops together in a single request). This is the one representation a
	// write has above the engine: the worker hands this slice (or, for a
	// merged run, one concatenation of them) to the engine batch, the
	// replication backlog, the reshard mirror and the hot cache alike. A
	// single-key write carries its op inline: ops is one[:], so the
	// commonest write costs no slice of its own.
	ops []kv.BatchOp
	one [1]kv.BatchOp
	// gsn, when non-zero, makes the write a leg of a cross-instance
	// transaction (§4.5): it commits alone, its engine record tagged.
	gsn uint64

	// Read-type payload. ticket is the key's hot-cache stripe value,
	// snapshotted before the read was submitted (Store.submit).
	key    []byte
	ticket uint64

	// run is a closure's body (reqRun); its error completes the request.
	run func(w *worker) error

	// Results.
	val   []byte
	found bool
	err   error

	// Completion: through callback when one is set, through done
	// otherwise. The sync path blocks on done (the paper's "suspends
	// itself without further CPU consumption", ②); the async path gets
	// callback(err) from the worker (the Put(K,V,callback) extension,
	// §4.1). done has capacity 1 and a request has exactly one waiter and
	// is completed exactly once, so completing is a send that never blocks
	// — which, unlike a close, leaves the channel reusable when the request
	// is (requests). recycle marks a pooled callback request: nobody reads
	// it once its callback has returned, so whoever ran the callback puts
	// it back.
	done     chan struct{}
	callback func(err error)
	recycle  bool

	// ctx, when non-nil, carries the request deadline. It is set only
	// for contexts that can actually expire (Done() != nil), so the
	// context-free hot path stays unchanged. Workers shed requests
	// whose context has expired before they reach the engine.
	ctx context.Context

	enqueuedAt time.Time
}

// complete hands the request back to its submitter. It is the completer's
// last touch of r: once the waiter has received from done, or the callback
// of a pooled request has returned, r is recycled.
func (r *request) complete(err error) {
	r.err = err
	if r.callback == nil {
		r.done <- struct{}{}
		return
	}
	recycle := r.recycle // a multiget leg may be reused the moment its callback returns
	r.callback(err)
	if recycle {
		putRequest(r)
	}
}

// newDone makes the completion channel of a request someone waits on.
func newDone() chan struct{} { return make(chan struct{}, 1) }

// requests recycles the requests of single-key operations — GetCtx, Put,
// Delete and the callback forms GetAsync, PutAsync — each with its
// completion channel, the request of a one-partition WriteCtx, and the read
// legs of MultiGetCtx. The rule is ownership: only the goroutine that
// observed a request's completion returns it. For a sync request that is
// the waiter that received from done; a waiter whose context ended first
// cannot know the worker is done with the request and leaves it to the
// garbage collector. For a callback request it is whoever ran the callback
// (a worker, or the close-drain), once the callback has returned. A
// multiget leg is the exception to that: its callback finishes a fan-in,
// and the submitter, which reads the leg after the fan-in completes,
// recycles it once wait has observed every leg's completion (multiGet). A
// request that never got into a queue is still its submitter's. The legs
// of a write that spans partitions (writeLegs) and control-plane requests
// stay ordinary allocations.
var requests = sync.Pool{New: func() any { return &request{done: newDone()} }}

func getRequest() *request { return requests.Get().(*request) }

// recycleHook, set by tests only, sees every request on its way back into
// the pool, before it is reset.
var recycleHook atomic.Pointer[func(*request)]

// putRequest recycles r. The caller is r's only holder (see requests) and
// has copied out the results it wants.
func putRequest(r *request) {
	if hook := recycleHook.Load(); hook != nil {
		(*hook)(r)
	}
	*r = request{done: r.done}
	requests.Put(r)
}

// expired reports whether the request's context ended (deadline or
// cancellation) — such requests are dead work and never reach the engine.
func (r *request) expired() bool {
	return r.ctx != nil && r.ctx.Err() != nil
}

// mergeable reports whether OBM may merge r into a run: a closure runs
// alone, and so does a transaction leg, whose engine record carries its GSN.
func (r *request) mergeable() bool { return r.typ != reqRun && r.gsn == 0 }

// reqQueue is the per-worker request queue. It is a mutex-guarded deque
// rather than a channel because OBM needs to *peek* at the head request's
// type without committing to dequeue it (Algorithm 1 line 8).
//
// Consumer-side waiting uses a sync.Cond (the single worker goroutine is
// only ever woken by push or close). Producer-side waiting uses per-waiter
// channels instead, so a producer blocked on a full queue can also wake on
// its request's ctx.Done — sync.Cond has no cancellable wait. Wakeups are
// broadcast-style (every waiter re-checks under the lock), which makes an
// abandoned wakeup harmless.
type reqQueue struct {
	mu       sync.Mutex
	notEmpty *sync.Cond
	items    []*request
	head     int
	capacity int
	closed   bool

	// spaceWaiters holds one channel per producer blocked in a full-queue
	// push; freeing space (or closing) closes them all.
	spaceWaiters []chan struct{}

	// highWater is the maximum queue depth ever observed — the overload
	// signal surfaced in WorkerStats.
	highWater int

	// pending counts requests enqueued and not yet finished: enqueueLocked
	// is its only increment, and the worker loop subtracts a run only after
	// the engine applied it (or it was shed, or drained at the close
	// deadline). Zero therefore means every request ever submitted to this
	// worker has taken effect — the idle test of Store.submit's direct read,
	// loaded by readers on other cores on every GET, hence the padding that
	// keeps it off the line mu and the deque live on.
	_       [64]byte
	pending atomic.Int64
	_       [56]byte
}

func newReqQueue(capacity int) *reqQueue {
	q := &reqQueue{capacity: capacity}
	q.notEmpty = sync.NewCond(&q.mu)
	return q
}

func (q *reqQueue) len() int { return len(q.items) - q.head }

func (q *reqQueue) enqueueLocked(r *request) {
	r.enqueuedAt = time.Now()
	q.pending.Add(1)
	q.items = append(q.items, r)
	if d := q.len(); d > q.highWater {
		q.highWater = d
	}
	q.notEmpty.Signal()
}

func (q *reqQueue) wakeSpaceLocked() {
	for _, ch := range q.spaceWaiters {
		close(ch)
	}
	q.spaceWaiters = q.spaceWaiters[:0]
}

// pushWait enqueues, blocking while the queue is full (backpressure). A
// nil done waits indefinitely; otherwise the wait aborts with
// kv.ErrDeadlineExceeded when done fires. Returns kv.ErrClosed if the
// queue is closed before the request lands.
func (q *reqQueue) pushWait(done <-chan struct{}, r *request) error {
	q.mu.Lock()
	for {
		if q.closed {
			q.mu.Unlock()
			return kv.ErrClosed
		}
		if q.len() < q.capacity {
			break
		}
		ch := make(chan struct{})
		q.spaceWaiters = append(q.spaceWaiters, ch)
		q.mu.Unlock()
		select {
		case <-ch:
		case <-done:
			q.removeSpaceWaiter(ch)
			return kv.ErrDeadlineExceeded
		}
		q.mu.Lock()
	}
	q.enqueueLocked(r)
	q.mu.Unlock()
	return nil
}

// tryPush enqueues without waiting: kv.ErrOverloaded when the queue is
// full, kv.ErrClosed when closed. The AdmitReject fast path.
func (q *reqQueue) tryPush(r *request) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return kv.ErrClosed
	}
	if q.len() >= q.capacity {
		return kv.ErrOverloaded
	}
	q.enqueueLocked(r)
	return nil
}

// removeSpaceWaiter unregisters an aborted waiter. If the channel was
// already closed by a broadcast the wakeup is simply dropped — safe,
// because broadcasts wake every waiter and each re-checks under the lock.
func (q *reqQueue) removeSpaceWaiter(ch chan struct{}) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for i, w := range q.spaceWaiters {
		if w == ch {
			q.spaceWaiters = append(q.spaceWaiters[:i], q.spaceWaiters[i+1:]...)
			return
		}
	}
}

// popBatch implements the queue side of Algorithm 1: it blocks for the
// first live request, then — when obm is true — greedily takes consecutive
// same-type mergeable requests up to max. Closures and transaction legs
// are returned alone.
//
// Requests whose context already expired are shed instead of batched
// (head-of-line shedding): they come back in expired, never occupying an
// OBM slot, and the caller completes them with kv.ErrDeadlineExceeded
// without touching the engine. batch == nil with a non-empty expired means
// "only dead work was pending — call again"; batch == nil and expired ==
// nil means closed-and-drained. The batch is appended to scratch[:0], which
// the one consumer owns and passes back in on every call.
func (q *reqQueue) popBatch(obm bool, max int, scratch []*request) (batch, expired []*request) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.len() == 0 && !q.closed {
		q.notEmpty.Wait()
	}
	// Shed expired requests at the head before forming a batch.
	for q.len() > 0 && q.items[q.head].expired() {
		expired = append(expired, q.items[q.head])
		q.head++
	}
	if q.len() == 0 {
		q.compact()
		if len(expired) > 0 {
			q.wakeSpaceLocked()
		}
		return nil, expired
	}
	first := q.items[q.head]
	q.head++
	batch = append(scratch[:0], first)
	if obm && first.mergeable() {
		for q.len() > 0 && len(batch) < max {
			next := q.items[q.head]
			if next.expired() {
				q.head++
				expired = append(expired, next)
				continue
			}
			if next.typ != first.typ || !next.mergeable() {
				break
			}
			q.head++
			batch = append(batch, next)
		}
	}
	q.compact()
	q.wakeSpaceLocked()
	return batch, expired
}

// drain removes and returns every still-queued request. Callers close the
// queue first so no new pushes land; the Close drain-deadline path fails
// the returned requests with kv.ErrClosed instead of waiting for a wedged
// worker to reach them.
func (q *reqQueue) drain() []*request {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := append([]*request(nil), q.items[q.head:]...)
	for i := range q.items {
		q.items[i] = nil
	}
	q.items = q.items[:0]
	q.head = 0
	q.pending.Add(-int64(len(out)))
	q.wakeSpaceLocked()
	return out
}

// highWaterMark reports the deepest the queue has ever been.
func (q *reqQueue) highWaterMark() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.highWater
}

// compact reclaims consumed prefix space once it dominates the slice.
func (q *reqQueue) compact() {
	if q.head > 64 && q.head*2 >= len(q.items) {
		n := copy(q.items, q.items[q.head:])
		for i := n; i < len(q.items); i++ {
			q.items[i] = nil
		}
		q.items = q.items[:n]
		q.head = 0
	}
}

// close wakes all waiters; pending items remain poppable.
func (q *reqQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.notEmpty.Broadcast()
	q.wakeSpaceLocked()
	q.mu.Unlock()
}
