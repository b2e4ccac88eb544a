package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"

	"p2kvs/internal/keyspace"
	"p2kvs/internal/kv"
)

// routing is one generation of the store's request routing: the
// partitioner and the worker set it maps into, always swapped together in
// a single atomic pointer so no request can ever combine a new ring's Pick
// with an old worker slice (or vice versa). It is the store's one record
// of its ring: a reshard installs a new generation, and Store.epoch counts
// them.
type routing struct {
	part    keyspace.Partitioner
	workers []*worker
}

func (rt *routing) pick(key []byte) *worker {
	return rt.workers[rt.part.Pick(key)]
}

// idle reports whether no worker has anything queued or executing.
func (rt *routing) idle() bool {
	for _, w := range rt.workers {
		if w.q.pending.Load() != 0 {
			return false
		}
	}
	return true
}

// ownership returns the partitioner a scan leg or merged iterator filters
// each worker's keys by, or nil when no filter is needed. Only a
// consistent-hash store reshards, so only its engines can hold keys they do
// not own — stale moved ranges awaiting cleanup, mid-copy duplicates — and
// exactly one worker owns each key, so the filtered union is exact.
func (rt *routing) ownership() keyspace.Partitioner {
	if _, ok := rt.part.(keyspace.Consistent); ok {
		return rt.part
	}
	return nil
}

// owned returns it, an iterator over worker i's engine, restricted to the
// keys this generation assigns to worker i: a stale copy of a moved key on
// its old owner must not shadow — or duplicate — the authoritative copy. A
// skipped key does not count against a scan's limit, so a SCAN n during a
// reshard still fills n slots with owned keys.
func (rt *routing) owned(it kv.Iterator, i int) kv.Iterator {
	part := rt.ownership()
	if part == nil {
		return it
	}
	return kv.Filter(it, func(key []byte) bool { return part.Pick(key) == i })
}

// owner returns the one worker every op of ops routes to under this routing
// generation, or nil when they span several (or there are none): a batch
// with an owner needs no split.
func (rt *routing) owner(ops []kv.BatchOp) *worker {
	if len(ops) == 0 {
		return nil
	}
	w := rt.pick(ops[0].Key)
	for _, op := range ops[1:] {
		if rt.pick(op.Key) != w {
			return nil
		}
	}
	return w
}

// legSet is one multi-partition call's legs (Store.dispatch): its requests,
// grouped by owning worker under the routing generation rt, and the fan-in
// they complete through. It is pooled with its scratch; its requests are
// pooled without the recycle mark, and go back with it (release).
type legSet struct {
	fanIn
	fin  func(error) // fanIn.finish, bound once: every queued leg's callback
	rt   *routing
	by   [][]*request   // worker p's leg: a read per key, or one write or closure
	reqs []*request     // the request of each key or op, positional (nil: a hot-cache hit)
	ops  [][]kv.BatchOp // worker p's write leg's ops, in batch order
	keys [][]byte       // a direct read leg's multiget keys
}

var legSets = sync.Pool{New: func() any {
	ls := &legSet{fanIn: fanIn{done: make(chan struct{}, 1)}}
	ls.fin = ls.finish
	return ls
}}

// newLegSet takes a leg set for a call of n keys or ops routed by rt.
func newLegSet(rt *routing, n int) *legSet {
	ls := legSets.Get().(*legSet)
	ls.rt, ls.pending = rt, 1
	ls.by = slices.Grow(ls.by, len(rt.workers))[:len(rt.workers)]
	ls.ops = slices.Grow(ls.ops, len(rt.workers))[:len(rt.workers)]
	ls.reqs = slices.Grow(ls.reqs, n)[:n]
	return ls
}

// write splits ops into one write request per owning worker. A request's ops
// are copies of the batch's, in batch order, not of the key and value bytes.
func (ls *legSet) write(ops []kv.BatchOp) {
	for i, op := range ops {
		p := ls.rt.part.Pick(op.Key)
		if len(ls.by[p]) == 0 {
			r := getRequest()
			r.typ = reqWrite
			ls.by[p] = append(ls.by[p], r)
		}
		ls.ops[p] = append(ls.ops[p], op)
		ls.reqs[i], ls.by[p][0].ops = ls.by[p][0], ls.ops[p]
	}
}

// release recycles the set and its legs once they are the caller's again:
// completed says its wait observed every completion (or no leg was queued).
// Otherwise the workers may still hold them, and they go to the GC.
func (ls *legSet) release(completed bool) {
	if !completed {
		return
	}
	for p, leg := range ls.by {
		for _, r := range leg {
			putRequest(r)
		}
		clear(leg)
		clear(ls.ops[p]) // they alias the caller's key and value bytes
		ls.by[p], ls.ops[p] = leg[:0], ls.ops[p][:0]
	}
	clear(ls.reqs)
	ls.by, ls.ops, ls.reqs, ls.rt, ls.err = ls.by[:0], ls.ops[:0], ls.reqs[:0], nil, nil
	legSets.Put(ls)
}

// ---------------------------------------------------------------------------
// Request lifecycle: admission control + deadline-aware submission
// ---------------------------------------------------------------------------

// ctxError maps a context termination into the typed request-lifecycle
// error. The result matches kv.ErrDeadlineExceeded and the context cause
// (context.DeadlineExceeded / context.Canceled) under errors.Is.
func ctxError(cause error) error {
	if cause == nil {
		return kv.ErrDeadlineExceeded
	}
	return fmt.Errorf("%w: %w", kv.ErrDeadlineExceeded, cause)
}

// liveCtx normalizes a request context: contexts that can never end
// (context.Background, context.TODO) are dropped so the context-free hot
// path stays allocation- and check-free.
func liveCtx(ctx context.Context) context.Context {
	if ctx == nil || ctx.Done() == nil {
		return nil
	}
	return ctx
}

// admit runs admission control and enqueues r on w's queue. It is the
// single gate every data-plane request passes: already-expired contexts
// fail here (the request never enters the queue), a full queue behaves per
// Options.Admission, and the request carries its context so the worker
// can shed it if it expires while queued. Callers route and admit under
// routeMu.RLock so the enqueue lands on a worker that owns the key under
// the routing generation it was picked from.
func (s *Store) admit(ctx context.Context, w *worker, r *request) error {
	if s.closed.Load() {
		return kv.ErrClosed
	}
	ctx = liveCtx(ctx)
	var done <-chan struct{}
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			w.expired.Add(1)
			return ctxError(err)
		}
		r.ctx = ctx
		done = ctx.Done()
	}
	if s.opts.Admission == AdmitReject {
		err := w.q.tryPush(r)
		if errors.Is(err, kv.ErrOverloaded) {
			w.rejected.Add(1)
			return fmt.Errorf("core: shard %d: %w", w.id, kv.ErrOverloaded)
		}
		return err
	}
	err := w.q.pushWait(done, r)
	if errors.Is(err, kv.ErrDeadlineExceeded) {
		w.expired.Add(1)
		return ctxError(ctx.Err())
	}
	return err
}

// do is the one control-plane submit: it enqueues fn on w as a closure past
// admission control and waits for the worker to call it and return. Replicated
// records, reshard copy / mirror / cleanup batches are never load-shed or
// rejected — a full queue simply backpressures their producer — and they are
// ordered with concurrent data-plane writes because they travel the same
// queue. Each commits its ops with worker.commit's unrouted set, so the hot
// cache drops their keys.
func (w *worker) do(fn func(w *worker) error) error {
	r := &request{typ: reqRun, run: fn, done: newDone()}
	if err := w.q.pushWait(nil, r); err != nil {
		return err
	}
	<-r.done
	return r.err
}

// waitDone blocks until the worker completes r (a sync request, admitted
// via admit) and reports r's error. When the request's context ends first,
// the caller unblocks with kv.ErrDeadlineExceeded and the worker sheds the
// orphaned request when it reaches it (nobody reads its result); completed
// is then false — the worker may still touch r, so the caller must not
// recycle it.
func (s *Store) waitDone(w *worker, r *request) (completed bool, err error) {
	if r.ctx == nil {
		<-r.done
		return true, r.err
	}
	select {
	case <-r.done:
		return true, r.err
	case <-r.ctx.Done():
		w.expired.Add(1)
		return false, ctxError(r.ctx.Err())
	}
}

// writeAdmitErr fast-fails writes aimed at a degraded shard, translated
// per admission policy: AdmitReject reports it as overload (the shard
// cannot absorb the write now) while still matching kv.ErrDegraded.
func (s *Store) writeAdmitErr(w *worker) error {
	err := w.degradedErr()
	if err != nil && s.opts.Admission == AdmitReject {
		w.rejected.Add(1)
		return fmt.Errorf("%w: %w", kv.ErrOverloaded, err)
	}
	return err
}

// fanIn is the one completion of a multi-leg operation — a leg set's legs
// (a multiget's, a multi-partition write's, a scan's), a barrier's parked
// workers. It counts legs, keeps the first error and signals done
// when the last leg finishes; legs report through finish, usually as their
// request's callback. The submitter holds one count of its own from
// newFanIn until wait, so legs that finish while later ones are still
// being admitted cannot signal done early. done has one receiver and
// capacity 1, so the signal never blocks and, once received, leaves the
// channel reusable (legSets).
type fanIn struct {
	mu      sync.Mutex
	pending int
	err     error
	done    chan struct{}
}

func newFanIn() *fanIn { return &fanIn{pending: 1, done: make(chan struct{}, 1)} }

// add registers one more leg; call it before the leg can finish.
func (f *fanIn) add() {
	f.mu.Lock()
	f.pending++
	f.mu.Unlock()
}

// finish completes one leg (a leg that failed admission finishes with that
// error).
func (f *fanIn) finish(err error) {
	f.mu.Lock()
	if err != nil && f.err == nil {
		f.err = err
	}
	f.pending--
	last := f.pending == 0
	f.mu.Unlock()
	if last {
		f.done <- struct{}{}
	}
}

// wait drops the submitter's own count and blocks until every leg has
// finished, returning the first leg error. When ctx ends first it returns
// kv.ErrDeadlineExceeded and leaves the stragglers to the workers — they
// shed or complete orphaned legs whose results nobody reads; completed is
// then false, and the legs and f are not the submitter's to reuse.
func (f *fanIn) wait(ctx context.Context) (completed bool, err error) {
	f.finish(nil)
	if ctx = liveCtx(ctx); ctx == nil {
		<-f.done
	} else {
		select {
		case <-f.done:
		case <-ctx.Done():
			return false, ctxError(ctx.Err())
		}
	}
	return true, f.err // ordered after every finish by the signal on done
}
