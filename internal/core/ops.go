package core

import (
	"bytes"
	"context"
	"errors"
	"math"
	"sort"
	"sync"

	"p2kvs/internal/kv"
)

// Data-plane operations: every one builds requests of the one shape
// (queue.go), routes and admits them under the routing read lock
// (routing.go) — or, for a synchronous read or write whose worker is idle
// (direct), runs them there on the caller — and completes through a done
// channel, a callback or — for multi-leg operations, placed by dispatch —
// one fanIn. Their requests come from the requests pool and go back by the
// ownership rule stated there. A direct Get's request lives on its caller's
// stack; a direct Put's goes back once it has committed.

// writeOne routes a single-key write, carried inline by a pooled request,
// and hands it to writeTo.
func (s *Store) writeOne(ctx context.Context, op kv.BatchOp, cb func(error)) error {
	r := getRequest()
	r.one[0] = op
	r.ops, r.callback, r.recycle = r.one[:], cb, cb != nil
	s.routeMu.RLock()
	return s.writeTo(ctx, s.route.Load().pick(op.Key), r)
}

// writeTo hands the pooled write request r to w (placeWrite), then releases
// the routing read lock its caller picked w under. Without a callback it is
// applied on the caller when the direct rule allows, and waited for
// otherwise (sync path); with one it is always queued, and the callback runs
// on the worker when the write completes (async path), and is not run at all
// when writeTo returns an error.
func (s *Store) writeTo(ctx context.Context, w *worker, r *request) error {
	r.typ = reqWrite
	async := r.callback != nil // r is the worker's from admission on: read it now
	ran, err := s.placeWrite(ctx, w, r, !async)
	s.routeMu.RUnlock()
	owned := ran || err != nil // never enqueued
	if !owned && !async {
		owned, err = s.waitDone(w, r)
	}
	if owned {
		putRequest(r)
	}
	return err
}

// Put implements kv.Engine (①②③ in Figure 9b: submit, enqueue, sleep
// until the worker completes the request).
func (s *Store) Put(key, value []byte) error {
	return s.writeOne(nil, kv.BatchOp{Kind: kv.OpPut, Key: key, Value: value}, nil)
}

// Delete implements kv.Engine.
func (s *Store) Delete(key []byte) error {
	return s.writeOne(nil, kv.BatchOp{Kind: kv.OpDelete, Key: key}, nil)
}

// PutAsync is the asynchronous write interface (§4.1): it enqueues and
// returns immediately; cb runs on the worker when the write completes.
// Backpressure applies when the worker queue is full. key and value are not
// copied on the way to the engine: they must stay unmodified until cb runs
// (or PutAsync returns an error, in which case cb never runs).
func (s *Store) PutAsync(key, value []byte, cb func(error)) error {
	return s.writeOne(nil, kv.BatchOp{Kind: kv.OpPut, Key: key, Value: value}, cb)
}

// Get implements kv.Engine.
func (s *Store) Get(key []byte) ([]byte, error) {
	return s.GetCtx(nil, key)
}

// hotRead is the first half of the one hot-cache read-through: a hit
// (positive or negative) is served right here, on the submitter's goroutine
// — no queue admission, no worker round-trip. A closed store answers
// nothing, hot keys included: it reports a miss, and admission refuses the
// read its caller then submits.
func (s *Store) hotRead(key []byte) (val []byte, hit bool, err error) {
	if s.closed.Load() {
		return nil, false, nil
	}
	v, neg, ok := s.cache.Get(key)
	if ok && neg {
		err = kv.ErrNotFound
	}
	return v, ok, err
}

// readResult is the second half, for an engine read (worker.readLeg) that
// returned no error, on whichever goroutine ran it: it fills the cache —
// only if no write bumped the key's stripe since the ticket was taken — and
// maps an absent key to kv.ErrNotFound.
func (s *Store) readResult(key, val []byte, found bool, ticket uint64) ([]byte, error) {
	s.cache.Fill(key, val, !found, ticket)
	if !found {
		return nil, kv.ErrNotFound
	}
	return val, nil
}

// direct is the one test of the direct rule: a synchronous operation on
// w's keys runs on its caller, under the routing read lock, when
// Options.Direct is on, ctx carries no live deadline, and w is idle —
// nothing queued, nothing executing (reqQueue.pending). closed is read
// under the lock Close passes through before it closes any engine: no
// direct leg is inside an engine being closed, and a closed store falls
// through to admission's kv.ErrClosed. A write asks more (directWrite).
func (s *Store) direct(ctx context.Context, w *worker) bool {
	return s.opts.Direct && liveCtx(ctx) == nil && w.q.pending.Load() == 0 && !s.closed.Load()
}

// directWrite is the write side of the rule: it commits ops — one
// synchronous write's, never a transaction leg's — on the caller, through
// w's own commit, when direct allows, no reshard run is active, and w's exec
// lock is free: a worker executing, or parked at a barrier, holds it. Under
// the lock it tests pending again (the worker may have taken a run between
// the test and the lock), so the write is the instance's one writer and
// lands after every earlier submission: the hot cache's write-through,
// ship's GSN order and lastGSN hold unchanged. Reads of w run beside it, as
// beside any writer of the engine, and the hot cache fences its keys until
// the write-through. ran is false when any test fails; nothing was done and
// the caller queues the write.
func (s *Store) directWrite(ctx context.Context, w *worker, ops []kv.BatchOp) (ran bool, err error) {
	if !s.direct(ctx, w) || s.resh.Load() != nil || !w.exec.TryLock() {
		return false, nil
	}
	defer w.exec.Unlock()
	if w.q.pending.Load() != 0 {
		return false, nil
	}
	w.directWrites.Add(int64(len(ops)))
	w.cache.Fence(ops)
	return true, w.commit(ops, 0, 0, false)
}

// placeWrite health-checks w and hands it the write request r: committed
// right here by directWrite when mayDirect (a synchronous write outside any
// transaction) and the rule allows — ran reports it, and r is still the
// caller's — else admitted to w's queue. Its caller holds the routing read
// lock w was picked under.
func (s *Store) placeWrite(ctx context.Context, w *worker, r *request, mayDirect bool) (ran bool, err error) {
	if err = s.writeAdmitErr(w); err != nil {
		return false, err
	}
	if mayDirect {
		if ran, err = s.directWrite(ctx, w, r.ops); ran {
			return true, err
		}
	}
	return false, s.admit(ctx, w, r)
}

// submit is what lies between the two halves for a single-key read that
// missed: it routes key and gets the read to its engine under the routing
// read lock, taken and released here and nowhere else. ticket is the key's
// hot-cache stripe value, snapshotted before the read can reach an engine.
//
// cb == nil is a synchronous read and submit returns its result. When
// direct allows, the caller runs the read itself as a one-key leg
// (worker.readLeg) of a request on its own stack, and no request leaves
// the pool; otherwise the read is queued and waited for. cb != nil is an
// asynchronous read: it is always queued, submit returns once it is
// admitted — the request is the worker's from then on, and may already be
// back in the pool — and cb receives the result. When submit returns an
// error cb never runs.
func (s *Store) submit(ctx context.Context, key []byte, ticket uint64, cb func([]byte, error)) ([]byte, error) {
	s.routeMu.RLock()
	w := s.route.Load().pick(key)
	if cb == nil && s.direct(ctx, w) {
		r := request{key: key}
		leg := [1]*request{&r}
		_, err := w.readLeg(leg[:], nil, true)
		s.routeMu.RUnlock()
		if err != nil {
			return nil, err
		}
		return s.readResult(key, r.val, r.found, ticket)
	}
	r := getRequest()
	r.typ, r.key, r.ticket = reqRead, key, ticket
	if cb != nil {
		r.recycle = true
		r.callback = func(err error) {
			if err != nil {
				cb(nil, err)
				return
			}
			cb(s.readResult(r.key, r.val, r.found, r.ticket))
		}
	}
	err := s.admit(ctx, w, r)
	s.routeMu.RUnlock()
	if err != nil || cb != nil {
		if err != nil { // never enqueued
			putRequest(r)
		}
		return nil, err
	}
	// A wait its context ended leaves r to the worker, which may still
	// touch it: only an observed completion makes it the caller's again.
	completed, err := s.waitDone(w, r)
	var val []byte
	if err == nil {
		val, err = s.readResult(key, r.val, r.found, ticket)
	}
	if completed {
		putRequest(r)
	}
	return val, err
}

// GetCtx is Get bounded by a context, read through the hot-key cache
// (hotRead / readResult) when one is enabled. The returned slice is the
// caller's: nothing in the store keeps a reference to it.
//
// The rule for a cache miss (direct): when the key's worker is idle —
// nothing queued, nothing executing — and ctx carries no deadline, the
// caller runs the engine read itself, under the routing read lock, and no
// goroutine is woken (Options.Direct). Idle means every write queued on
// that worker before the test has been applied, so the read sees all of
// them; a write submitted after it, or a direct write that has not returned,
// is concurrent with the read.
// Anything else takes the queue: a busy worker has something to batch the
// read with (OBM), and only a waiter that is not the executor can abandon a
// read at its deadline.
//
// What the rule gives up: synchronous readers never make a worker busy, so
// under read-only synchronous traffic every Get is direct, at any client
// count — as many readers are inside one engine at once as there are
// callers, where the queue admitted one worker, and OBM's MultiGet is never
// chosen. The engines' point lookups are concurrent-safe (kvtest's
// concurrent case). MultiGetCtx applies the rule per leg, and its direct
// legs read in turn where queued ones would read at once: on a slow device
// that is the rule's price (the MGET rows of ablation-direct-read).
func (s *Store) GetCtx(ctx context.Context, key []byte) ([]byte, error) {
	if v, hit, err := s.hotRead(key); hit {
		return v, err
	}
	return s.submit(ctx, key, s.cache.Snapshot(key), nil)
}

// GetAsync is the asynchronous read interface; cb receives the value (nil
// when absent along with kv.ErrNotFound). key must stay unmodified until cb
// runs; the value cb receives is the caller's to keep, exactly as GetCtx's
// result is. A hot-cache hit runs cb synchronously, before GetAsync returns
// — the read never enters a queue; a miss always does (the caller asked
// not to run the read itself). When GetAsync returns an error cb never
// runs.
func (s *Store) GetAsync(key []byte, cb func([]byte, error)) error {
	if v, hit, err := s.hotRead(key); hit {
		cb(v, err)
		return nil
	}
	_, err := s.submit(nil, key, s.cache.Snapshot(key), cb)
	return err
}

// MultiGet resolves several keys in one call: keys are grouped per
// worker, and each worker's group is one leg — on a busy worker read
// requests that OBM merges into the engine's multiget, on an idle one the
// same multiget run by the caller — and results return positionally (nil =
// not found). This is the application-facing face of the paper's read
// batching — a caller with a natural read batch gets the Figure 10b path
// deterministically instead of opportunistically.
func (s *Store) MultiGet(keys [][]byte) ([][]byte, error) {
	return s.MultiGetCtx(nil, keys)
}

// MultiGetCtx is MultiGet bounded by one shared context: every queued leg
// carries the same deadline. Hot-cache hits (positive and negative) are
// resolved up front without admission; only the misses travel, one read
// request per key, grouped by owner under one routing read lock, so every
// leg of one multiget observes the same ring generation, and placed by
// dispatch: GetCtx's rule, per leg. The first leg that fails short-circuits
// the remaining ones — a rejected multiget must not keep pushing work at
// queues that are already refusing it.
func (s *Store) MultiGetCtx(ctx context.Context, keys [][]byte) ([][]byte, error) {
	if s.closed.Load() {
		return nil, kv.ErrClosed
	}
	out := make([][]byte, len(keys))
	s.routeMu.RLock()
	ls := newLegSet(s.route.Load(), len(keys))
	for i, k := range keys {
		if v, hit, _ := s.hotRead(k); hit {
			out[i] = v // a negative hit leaves nil = not found
			continue
		}
		r := getRequest()
		r.typ, r.key, r.ticket = reqRead, k, s.cache.Snapshot(k)
		p := ls.rt.part.Pick(k)
		ls.reqs[i], ls.by[p] = r, append(ls.by[p], r)
	}
	completed, err := s.dispatch(ctx, ls, true)
	for i, r := range ls.reqs {
		if r != nil && err == nil { // nil implies completed
			out[i], _ = s.readResult(r.key, r.val, r.found, r.ticket)
		}
	}
	ls.release(completed)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Write implements kv.BatchWriter. A batch confined to one partition
// commits directly on that instance. A batch spanning partitions becomes
// a GSN transaction (§4.5): begin is persisted, the split WriteBatches
// carry the same GSN into each instance's WAL and are excluded from OBM
// merging, and commit is persisted once every instance acknowledges. A
// crash between begin and commit rolls the pieces back at recovery.
func (s *Store) Write(b *kv.Batch) error {
	return s.WriteCtx(nil, b)
}

// WriteCtx is Write bounded by one context shared by every transaction
// leg: either all legs are admitted under the same deadline or the batch
// fails before the transaction begins; a deadline that fires mid-flight
// leaves the transaction uncommitted, and recovery rolls it back exactly
// like any other failed leg. A batch confined to one partition reaches its
// worker as is, ops slice and bytes uncopied: they must stay unmodified
// until WriteCtx returns, and a write abandoned at its deadline may still be
// applied from them afterwards.
func (s *Store) WriteCtx(ctx context.Context, b *kv.Batch) error {
	if b.Len() == 0 {
		return nil
	}
	commit, err := s.write(ctx, b, false, nil)
	if err != nil || commit == nil {
		return err
	}
	return commit()
}

// WriteEachCtx applies b's ops as independent writes, not as one
// transaction: each partition's ops commit together, as one ordinary write
// that its worker's OBM may merge with its neighbours — or that the caller
// commits itself when that worker is idle (directWrite) — and errs[i] (errs
// holds at least b.Len()) is the error of the write that carried op i. Ops
// on one key stay in batch order. Nothing reaches the transaction log, so
// no Options.TxnFS is needed. Key and value bytes are not copied: they must
// stay unmodified until WriteEachCtx returns, and a write abandoned at its
// deadline may still be applied from them afterwards.
func (s *Store) WriteEachCtx(ctx context.Context, b *kv.Batch, errs []error) {
	if b.Len() > 0 {
		s.write(ctx, b, false, errs[:b.Len()])
	}
}

// WritePrepared applies the batch like Write but separates the two
// transaction phases: it returns once every instance has durably applied
// its WriteBatch under a fresh GSN, leaving the caller to invoke commit.
// A crash before commit rolls the whole transaction back at recovery on
// every instance (Figure 11) — which is also what makes this the hook
// for layering higher isolation levels, the extension §4.5 sketches.
// Note that an online reshard's cutover waits for prepared transactions
// to settle, so a commit closure held open for long stalls (and
// eventually fails) a concurrent Reshard.
func (s *Store) WritePrepared(b *kv.Batch) (commit func() error, err error) {
	if b.Len() == 0 {
		return func() error { return nil }, nil
	}
	return s.write(nil, b, true, nil)
}

// write splits, health-checks and admits b under one routing read lock:
// every leg targets the owner of its keys under a single ring generation,
// and a reshard cutover cannot slip between the split and the enqueues. A
// batch confined to one partition commits directly on that instance and
// returns a nil commit — unless the caller asked for the prepared form,
// which is a GSN transaction however many legs it has. With errs the legs
// are independent writes, each op's error lands in errs (WriteEachCtx), and
// a failed leg stops none of the others; without, they are one transaction,
// begun before dispatch, stopped at its first failed leg and committed by
// the returned closure.
func (s *Store) write(ctx context.Context, b *kv.Batch, prepared bool, errs []error) (commit func() error, err error) {
	ctx = liveCtx(ctx)
	s.routeMu.RLock()
	rt := s.route.Load()
	if w := rt.owner(b.Ops()); w != nil && !prepared {
		r := getRequest()
		r.ops = b.Ops()
		err = s.writeTo(ctx, w, r)
		for i := range errs {
			errs[i] = err
		}
		return nil, err
	}
	if errs == nil && s.txn == nil {
		s.routeMu.RUnlock()
		return nil, errors.New("core: cross-partition batch requires Options.TxnFS for atomicity")
	}
	ls := newLegSet(rt, b.Len())
	ls.write(b.Ops())
	if errs != nil {
		completed, err := s.dispatch(ctx, ls, false)
		for i, r := range ls.reqs {
			if completed {
				err = r.err
			}
			errs[i] = err
		}
		ls.release(completed)
		return nil, nil
	}
	// Fail fast before persisting the transaction begin: a degraded shard
	// cannot apply its piece (and an already-dead context never will), so
	// the whole transaction would only be rolled back at recovery anyway.
	for p, leg := range ls.by {
		if len(leg) > 0 && err == nil {
			err = s.writeAdmitErr(rt.workers[p])
		}
	}
	if err == nil && ctx != nil && ctx.Err() != nil {
		err = ctxError(ctx.Err())
	}
	var gsn uint64
	if err == nil {
		gsn = s.gsn.Add(1)
		err = s.txn.begin(gsn)
	}
	if err != nil {
		s.routeMu.RUnlock()
		ls.release(true)
		return nil, err
	}
	for _, r := range ls.reqs {
		r.gsn = gsn
	}
	s.preparedTxns.Add(1)
	var settleOnce sync.Once
	settle := func() { settleOnce.Do(func() { s.preparedTxns.Add(-1) }) }
	completed, err := s.dispatch(ctx, ls, true)
	ls.release(completed)
	if err != nil {
		// A leg failed, or the deadline fired mid-transaction: leave it
		// uncommitted, recovery rolls every applied leg back on every
		// instance.
		s.txn.abandon(gsn)
		settle()
		return nil, err
	}
	return func() error {
		defer settle()
		return s.txn.commit(gsn)
	}, nil
}

// dispatch is the one leg loop of a call that spans workers: N instances,
// each serving its own leg (§4.1). Under the routing read lock ls was built
// under, it queues the legs of the workers the direct rule refuses, then
// runs each idle worker's leg on the caller, in turn (placeLeg). A leg OBM
// may not merge (a transaction's, a closure) runs alone on its worker and
// always queues. With stop, the first leg that fails is the call's error and
// the legs after it are never placed; without, each keeps its own (r.err).
// It then releases the lock and waits on the fan-in: completed is false when
// ctx ended first, and the workers may still hold the legs.
func (s *Store) dispatch(ctx context.Context, ls *legSet, stop bool) (completed bool, err error) {
placing:
	for _, idleTurn := range [2]bool{false, true} {
		for p, leg := range ls.by {
			w := ls.rt.workers[p]
			if len(leg) == 0 || leg[0].callback != nil || !idleTurn && leg[0].mergeable() && s.direct(ctx, w) {
				continue // no leg, placed in the first turn, or its turn is the second
			}
			if err := s.placeLeg(ctx, ls, w, leg, idleTurn); err != nil && stop {
				break placing
			}
		}
	}
	s.routeMu.RUnlock()
	return ls.wait(ctx)
}

// placeLeg hands w its leg of ls: queued (a write past placeWrite's health
// check), or in the idle turn run right here — a read by readLeg, a write by
// directWrite, which queues it after all when w turned busy. It returns the
// leg's error, which the fan-in has recorded too.
func (s *Store) placeLeg(ctx context.Context, ls *legSet, w *worker, leg []*request, idle bool) (err error) {
	if idle && leg[0].typ == reqRead {
		ls.add()
		ls.keys, err = w.readLeg(leg, ls.keys, true)
		ls.finish(err)
		return err
	}
	for _, r := range leg {
		r.callback = ls.fin
		ls.add()
		ran := false
		if r.typ == reqWrite {
			ran, err = s.placeWrite(ctx, w, r, idle)
		} else {
			err = s.admit(ctx, w, r)
		}
		if ran || err != nil {
			r.complete(err)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Range queries (§4.4)
// ---------------------------------------------------------------------------

// Pair is a key/value result.
type Pair = kv.Pair

// scanQuery is one SCAN or RANGE: the keys from start (nil: the first),
// none past end (inclusive) when end is non-nil, at most limit of them.
type scanQuery struct {
	start, end []byte
	limit      int
}

// scan runs q over it — the one walker behind both scan paths (a per-worker
// leg's owned engine iterator, the caller's global merged one). A ctx that
// ends mid-walk ends the walk.
func (q scanQuery) scan(ctx context.Context, it kv.Iterator) ([]Pair, error) {
	if q.start == nil {
		it.SeekToFirst()
	} else {
		it.Seek(q.start)
	}
	var out []Pair
	for ; ; it.Next() {
		if ctx != nil && ctx.Err() != nil {
			return nil, ctxError(ctx.Err())
		}
		if !it.Valid() || len(out) >= q.limit {
			break
		}
		if q.end != nil && bytes.Compare(it.Key(), q.end) > 0 {
			break
		}
		out = append(out, Pair{
			Key:   append([]byte(nil), it.Key()...),
			Value: append([]byte(nil), it.Value()...),
		})
	}
	return out, it.Error()
}

// scanFan sends one leg of q to each worker under a single routing read
// lock, each a closure that walks its worker's engine iterator (dispatch),
// then merges their sorted results.
func (s *Store) scanFan(ctx context.Context, q scanQuery) ([]Pair, error) {
	ctx = liveCtx(ctx)
	s.routeMu.RLock()
	rt := s.route.Load()
	ls := newLegSet(rt, 0)
	outs := make([][]Pair, len(rt.workers))
	for i := range rt.workers {
		r := getRequest()
		r.typ, r.run = reqRun, func(w *worker) error {
			it, err := w.engine.NewIterator()
			if err != nil {
				return err
			}
			defer it.Close()
			outs[i], err = q.scan(ctx, rt.owned(it, i))
			return err
		}
		ls.by[i] = append(ls.by[i], r)
	}
	completed, err := s.dispatch(ctx, ls, true)
	ls.release(completed)
	if err != nil {
		return nil, err
	}
	var all []Pair
	for _, out := range outs {
		all = append(all, out...)
	}
	sort.Slice(all, func(i, j int) bool { return bytes.Compare(all[i].Key, all[j].Key) < 0 })
	return all, nil
}

// Range reads every live pair with begin <= key <= end. The request is
// forked into per-instance sub-RANGEs executed in parallel and merged —
// no extra reads, since partitions are disjoint.
func (s *Store) Range(begin, end []byte) ([]Pair, error) {
	return s.scanFan(nil, scanQuery{start: begin, end: end, limit: math.MaxInt})
}

// Scan reads up to n pairs with key >= start, by the path ScanCtx picks.
func (s *Store) Scan(start []byte, n int) ([]Pair, error) {
	return s.ScanCtx(nil, start, n)
}

// ScanCtx is Scan bounded by one context shared by every scan leg. The store
// picks the path (§4.4) from observable state, as GetCtx picks the direct
// read. A scan fans out — each worker scans n pairs of its own and the union
// is cut to the first n — when every worker is idle (a fan-out in flight
// keeps them busy) and fewer scans than workers are running: (W-1) × n extra
// reads buy one leg's latency instead of W serial seeks, and nothing else
// wants those reads. Otherwise the caller walks the global merged iterator
// and reads exactly n pairs: a fan-out's legs would queue behind the
// workers' work, and W scans at once already keep W streams busy, which is
// all a fan-out adds besides its over-read. Either path reads every write
// acknowledged before the call; a walk may miss one that is only admitted
// (a PutAsync whose callback has not run), which a leg would queue behind.
func (s *Store) ScanCtx(ctx context.Context, start []byte, n int) ([]Pair, error) {
	if n <= 0 {
		return nil, nil
	}
	q := scanQuery{start: start, limit: n}
	running := s.scans.Add(1)
	defer s.scans.Add(-1)
	rt := s.route.Load()
	if running > int64(len(rt.workers)) || !rt.idle() {
		// Refused before it reaches an engine, as admission refuses a leg.
		if ctx = liveCtx(ctx); ctx != nil && ctx.Err() != nil {
			return nil, ctxError(ctx.Err())
		}
		it, err := s.NewIterator()
		if err != nil {
			return nil, err
		}
		defer it.Close()
		return q.scan(ctx, it)
	}
	all, err := s.scanFan(ctx, q)
	if err != nil {
		return nil, err
	}
	if len(all) > n {
		all = all[:n]
	}
	return all, nil
}

// NewIterator implements kv.Engine with a global merged iterator over the
// per-instance iterators — the RocksDB-MergeIterator-style construction
// from §4.4. It bypasses the worker queues (engines are thread-safe and
// iterators snapshot). Each child is owned under the captured routing
// generation, so stale moved ranges awaiting cleanup (or mid-copy
// duplicates) are never yielded; children are created under the routing
// read lock so the worker set cannot be retired mid-construction.
func (s *Store) NewIterator() (kv.Iterator, error) {
	if s.closed.Load() {
		return nil, kv.ErrClosed
	}
	s.routeMu.RLock()
	rt := s.route.Load()
	children := make([]kv.Iterator, 0, len(rt.workers))
	for i, w := range rt.workers {
		it, err := w.engine.NewIterator()
		if err != nil {
			s.routeMu.RUnlock()
			for _, c := range children {
				c.Close()
			}
			return nil, err
		}
		children = append(children, rt.owned(it, i))
	}
	s.routeMu.RUnlock()
	return kv.NewMerge(bytes.Compare, children), nil
}
