package core

import (
	"bytes"
	"context"
	"errors"
	"math"
	"slices"
	"sort"
	"sync"

	"p2kvs/internal/kv"
)

// Data-plane operations: every one builds requests of the one shape
// (queue.go), routes and admits them under the routing read lock
// (routing.go), and completes through a done channel, a callback or — for
// multi-leg operations — one fanIn. The single-key ones (GetCtx, Put,
// Delete and the callback forms) and MultiGetCtx's read legs draw their
// requests from the requests pool; they go back by the ownership rule
// stated there.

// writeOne routes a single-key write, carried inline by a pooled request,
// and hands it to writeTo.
func (s *Store) writeOne(ctx context.Context, op kv.BatchOp, cb func(error)) error {
	r := getRequest()
	r.one[0] = op
	r.ops, r.callback, r.recycle = r.one[:], cb, cb != nil
	s.routeMu.RLock()
	return s.writeTo(ctx, s.route.Load().pick(op.Key), r)
}

// writeTo health-checks w and admits the pooled write request r on it, then
// releases the routing read lock its caller picked w under. Without a
// callback it waits for completion (sync path); otherwise the callback runs
// on the worker when the write completes (async path), and is not run at all
// when writeTo returns an error.
func (s *Store) writeTo(ctx context.Context, w *worker, r *request) error {
	r.typ = reqWrite
	async := r.callback != nil // r is the worker's from admission on: read it now
	err := s.writeAdmitErr(w)
	if err == nil {
		err = s.admit(ctx, w, r)
	}
	s.routeMu.RUnlock()
	owned := err != nil // never enqueued
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

// readResult is the second half, for an engine read (worker.get) that
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

// submit is what lies between the two halves for a single-key read that
// missed: it routes key and gets the read to its engine under the routing
// read lock, taken and released here and nowhere else. ticket is the key's
// hot-cache stripe value, snapshotted before the read can reach an engine.
//
// cb == nil is a synchronous read and submit returns its result. When the
// key's worker is idle and ctx carries no deadline the caller runs the
// engine read itself (see GetCtx) and no request leaves the pool; otherwise
// the read is queued and waited for. cb != nil is an asynchronous read: it
// is always queued, submit returns once it is admitted — the request is the
// worker's from then on, and may already be back in the pool — and cb
// receives the result. When submit returns an error cb never runs.
func (s *Store) submit(ctx context.Context, key []byte, ticket uint64, cb func([]byte, error)) ([]byte, error) {
	s.routeMu.RLock()
	w := s.route.Load().pick(key)
	// closed is read under the lock Close passes through before it closes
	// any engine: no direct read is inside an engine being closed. A closed
	// store falls through to admission's kv.ErrClosed.
	if cb == nil && s.opts.DirectReads && liveCtx(ctx) == nil && w.q.pending.Load() == 0 && !s.closed.Load() {
		val, found, err := w.get(key)
		s.routeMu.RUnlock()
		w.directReads.Add(1)
		if err != nil {
			return nil, err
		}
		return s.readResult(key, val, found, ticket)
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
// The rule for a cache miss: when the key's worker is idle — nothing queued,
// nothing executing — and ctx carries no deadline, the caller runs the
// engine read itself, under the routing read lock, and no goroutine is
// woken (Options.DirectReads). Idle means every write submitted to that
// worker before the test has been applied, so the read sees all of them; a
// write submitted after it is concurrent with the read. Anything else takes
// the queue: a busy worker has something to batch the read with (OBM), and
// only a waiter that is not the executor can abandon a read at its deadline.
//
// What the rule gives up: synchronous readers never make a worker busy, so
// under read-only synchronous traffic every Get is direct, at any client
// count — as many readers are inside one engine at once as there are
// callers, where the queue admitted one worker, and OBM's MultiGet is never
// chosen. The engines' point lookups are concurrent-safe (kvtest's
// concurrent case); whether a device is better served by that or by one
// batched reader per instance has not been measured here (ROADMAP 2c′).
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
// worker, each group travels as read requests that OBM merges into the
// engine's multiget, and results return positionally (nil = not found).
// This is the application-facing face of the paper's read batching — a
// caller with a natural read batch gets the Figure 10b path
// deterministically instead of opportunistically.
func (s *Store) MultiGet(keys [][]byte) ([][]byte, error) {
	return s.MultiGetCtx(nil, keys)
}

// MultiGetCtx is MultiGet bounded by one shared context: every per-worker
// read leg carries the same deadline. Hot-cache hits (positive and
// negative) are resolved up front without admission; only the misses
// travel as read legs. The first admission failure short-circuits the
// remaining legs — a rejected multiget must not keep pushing work at
// queues that are already refusing it. All legs are admitted under one
// routing read lock, so every leg of one multiget observes the same ring
// generation.
func (s *Store) MultiGetCtx(ctx context.Context, keys [][]byte) ([][]byte, error) {
	if s.closed.Load() {
		return nil, kv.ErrClosed
	}
	out := make([][]byte, len(keys))
	m := multiGets.Get().(*multiGet)
	m.pending = 1
	m.legs = slices.Grow(m.legs, len(keys))[:len(keys)]
	s.routeMu.RLock()
	rt := s.route.Load()
	for i, k := range keys {
		if v, hit, _ := s.hotRead(k); hit {
			out[i] = v // a negative hit leaves nil = not found
			continue
		}
		r := getRequest()
		r.typ, r.key, r.ticket, r.callback = reqRead, k, s.cache.Snapshot(k), m.fin
		m.legs[i] = r
		m.add()
		if err := s.admit(ctx, rt.pick(k), r); err != nil {
			m.fin(err)
			break // short-circuit: don't amplify overload with more legs
		}
	}
	s.routeMu.RUnlock()
	completed, err := m.wait(ctx)
	if !completed {
		return nil, err // the workers may still hold the legs: m goes to the GC
	}
	for i, r := range m.legs {
		if r == nil {
			continue
		}
		if err == nil {
			out[i], _ = s.readResult(r.key, r.val, r.found, r.ticket)
		}
		putRequest(r)
	}
	clear(m.legs)
	m.legs, m.err = m.legs[:0], nil
	multiGets.Put(m)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// multiGet is one MultiGetCtx's fan-in and its read legs, positional (nil
// for a key the hot cache answered), pooled together with the completion
// callback every leg carries. The legs are pooled requests without the
// recycle mark: no completer puts them back. The submitter does, once wait
// has observed every completion; a submitter whose context ended first
// leaves them, and m, to the garbage collector.
type multiGet struct {
	fanIn
	fin  func(error) // fanIn.finish, bound once
	legs []*request
}

var multiGets = sync.Pool{New: func() any {
	m := &multiGet{fanIn: fanIn{done: make(chan struct{}, 1)}}
	m.fin = m.finish
	return m
}}

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
// that its worker's OBM may merge with its neighbours, and errs[i] (errs
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
// are independent writes and each op's error lands in errs (WriteEachCtx);
// without, they are one transaction, begun before writeLegs and committed
// by the returned closure.
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
	legs := rt.split(b.Ops())
	if errs != nil {
		completed, err := s.writeLegs(ctx, rt, legs, 0)
		for i, op := range b.Ops() {
			if completed {
				err = legs[rt.part.Pick(op.Key)].err
			}
			errs[i] = err
		}
		return nil, nil
	}
	// Fail fast before persisting the transaction begin: a degraded shard
	// cannot apply its piece (and an already-dead context never will), so
	// the whole transaction would only be rolled back at recovery anyway.
	for i, r := range legs {
		if r == nil {
			continue
		}
		if err := s.writeAdmitErr(rt.workers[i]); err != nil {
			s.routeMu.RUnlock()
			return nil, err
		}
	}
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			s.routeMu.RUnlock()
			return nil, ctxError(err)
		}
	}
	gsn := s.gsn.Add(1)
	if err := s.txn.begin(gsn); err != nil {
		s.routeMu.RUnlock()
		return nil, err
	}
	s.preparedTxns.Add(1)
	var settleOnce sync.Once
	settle := func() { settleOnce.Do(func() { s.preparedTxns.Add(-1) }) }
	if _, err := s.writeLegs(ctx, rt, legs, gsn); err != nil {
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

// writeLegs is the one loop of a write that spans partitions. Entered under
// the routing read lock rt and legs were taken under, it health-checks and
// admits legs[i] on worker i, releases the lock and waits for every leg. A
// gsn of 0 sends ordinary writes, which OBM may merge; a non-zero gsn tags
// every leg as one §4.5 transaction's, which OBM runs alone. The legs share
// ctx, so they observe one deadline. completed is false when ctx ended
// first: the workers may still hold the legs, and their errors are not the
// caller's to read.
func (s *Store) writeLegs(ctx context.Context, rt *routing, legs []*request, gsn uint64) (completed bool, err error) {
	fan := newFanIn()
	fin := fan.finish
	for i, r := range legs {
		if r == nil {
			continue
		}
		r.gsn, r.callback = gsn, fin
		fan.add()
		err := s.writeAdmitErr(rt.workers[i])
		if err == nil {
			err = s.admit(ctx, rt.workers[i], r)
		}
		if err != nil {
			r.complete(err)
		}
	}
	s.routeMu.RUnlock()
	return fan.wait(ctx)
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

// scanFan admits one leg of q per worker under a single routing read lock,
// each a closure that walks its worker's engine iterator, then waits for
// the legs with the lock released and merges their sorted results.
func (s *Store) scanFan(ctx context.Context, q scanQuery) ([]Pair, error) {
	ctx = liveCtx(ctx)
	fan := newFanIn()
	s.routeMu.RLock()
	rt := s.route.Load()
	outs := make([][]Pair, len(rt.workers))
	for i, w := range rt.workers {
		r := &request{typ: reqRun, callback: fan.finish, run: func(w *worker) error {
			it, err := w.engine.NewIterator()
			if err != nil {
				return err
			}
			defer it.Close()
			outs[i], err = q.scan(ctx, rt.owned(it, i))
			return err
		}}
		fan.add()
		if err := s.admit(ctx, w, r); err != nil {
			fan.finish(err)
		}
	}
	s.routeMu.RUnlock()
	if _, err := fan.wait(ctx); err != nil {
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
