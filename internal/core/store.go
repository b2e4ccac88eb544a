package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"p2kvs/internal/hotcache"
	"p2kvs/internal/keyspace"
	"p2kvs/internal/kv"
	"p2kvs/internal/reshard"
	"p2kvs/internal/scrub"
	"p2kvs/internal/stats"
)

// routing is one generation of the store's request routing: the
// partitioner snapshot and the worker set it maps into, always swapped
// together in a single atomic pointer so no request can ever combine a
// new ring's Pick with an old worker slice (or vice versa). For elastic
// stores part holds a keyspace.Consistent value captured from the Ring,
// not the Ring itself — the Ring advances at cutover, but a routing
// generation must stay internally consistent for as long as anything
// references it.
type routing struct {
	part    keyspace.Partitioner
	workers []*worker
}

func (rt *routing) pick(key []byte) *worker {
	return rt.workers[rt.part.Pick(key)]
}

// split partitions a user batch into per-worker sub-batches under this
// routing generation.
func (rt *routing) split(b *kv.Batch) map[*worker]*batchRef {
	subs := make(map[*worker]*batchRef)
	for _, op := range b.Ops() {
		w := rt.pick(op.Key)
		ref := subs[w]
		if ref == nil {
			ref = &batchRef{}
			subs[w] = ref
		}
		ref.ops = append(ref.ops, wop{del: op.Kind == kv.OpDelete, key: op.Key, value: op.Value})
	}
	return subs
}

// Store is a p2KVS instance: the accessing layer plus N workers (Figure
// 9a). It implements kv.Engine, so applications see one standard KV store
// while requests are transparently sharded (§4.1).
type Store struct {
	opts   Options
	gsn    atomic.Uint64
	txn    *txnLog
	closed atomic.Bool

	// route is the current routing generation. routeMu orders request
	// submission against reshard cutover: every submit path holds the
	// read side from routing lookup through enqueue (released before
	// waiting on completion), and the cutover flip holds the write side
	// — so when the flip commits, every admitted request is already in
	// the queue of a worker that owned its key under the generation it
	// was routed by.
	route   atomic.Pointer[routing]
	routeMu sync.RWMutex

	// ring is non-nil for elastic stores (Options.Partitioner is a
	// *keyspace.Ring); only those can Reshard.
	ring *keyspace.Ring
	// resh is the active resharding run (nil in steady state); workers
	// consult it on every applied write batch to double-write moved keys.
	// reshMu serializes Reshard calls; tracker feeds reshard_* stats;
	// epoch is the committed ring generation (persisted in TOPOLOGY).
	resh    atomic.Pointer[reshardRun]
	reshMu  sync.Mutex
	tracker reshard.Tracker
	epoch   atomic.Uint64
	// preparedTxns counts cross-partition transactions between begin and
	// commit/abandon; cutover waits for it to reach zero so a ring flip
	// never lands between a transaction's prepared legs and its commit
	// record.
	preparedTxns atomic.Int64
	// retired holds workers dropped by a shrink: their goroutines are
	// parked and they receive no traffic, but their engines stay open
	// until Close so iterators created before the cutover remain valid.
	retiredMu sync.Mutex
	retired   []*worker

	// Checkpoint state: ckptMu serializes Checkpoint calls; the atomics
	// feed StatsSnapshot and the server's LASTSAVE / INFO.
	ckptMu        sync.Mutex
	ckptCount     atomic.Int64
	ckptBarrierNs atomic.Int64
	lastCkptUnix  atomic.Int64

	// scrubber drives periodic background integrity scrubs
	// (Options.ScrubInterval); nil when disabled.
	scrubber *scrub.Runner

	// cache is the hot-key read cache above the worker queues
	// (Options.HotCacheBytes); nil when disabled. Hits bypass admission
	// entirely; workers invalidate written keys on apply, so a cached
	// value is never served past the acknowledgement of a write that
	// supersedes it. Built fresh at Open — it never survives a crash or
	// restore, so it cannot resurrect pre-reopen state.
	cache *hotcache.Cache
}

var _ kv.Engine = (*Store)(nil)
var _ kv.BatchWriter = (*Store)(nil)
var _ kv.Resumer = (*Store)(nil)

// ws returns the current routing generation's worker set.
func (s *Store) ws() []*worker { return s.route.Load().workers }

// Open builds the store: recovers the transaction log, opens every
// worker's instance (rolling back uncommitted cross-instance
// transactions), and starts the worker threads. For elastic stores it
// also validates the persisted topology and finishes a cleanup
// interrupted by a crash.
func Open(opts Options) (*Store, error) {
	opts = opts.withDefaults()
	if opts.EngineFactory == nil {
		return nil, errors.New("core: Options.EngineFactory is required")
	}
	if opts.Partitioner.N() != opts.Workers {
		return nil, errors.New("core: partitioner size must match worker count")
	}
	if opts.ReplLog != nil && opts.ReplLog.Workers() != opts.Workers {
		return nil, errors.New("core: replication log size must match worker count")
	}
	s := &Store{opts: opts}
	s.ring, _ = opts.Partitioner.(*keyspace.Ring)
	if s.ring != nil && opts.ReplLog != nil {
		return nil, errors.New("core: replication and elastic resharding are mutually exclusive (the replication backlog is sized to a fixed worker count)")
	}
	if opts.HotCacheBytes > 0 {
		s.cache = hotcache.New(opts.HotCacheBytes)
	}

	var topo *reshard.Topology
	var filter func(gsn uint64) bool
	if opts.TxnFS != nil {
		var err error
		topo, err = reshard.LoadTopology(opts.TxnFS, opts.TxnDir)
		if err != nil {
			return nil, err
		}
		if topo != nil {
			if topo.Workers != opts.Workers {
				return nil, fmt.Errorf("core: store topology records %d workers but Options.Workers is %d — elastic stores must be reopened at their committed worker count",
					topo.Workers, opts.Workers)
			}
			s.epoch.Store(topo.Epoch)
			s.tracker.SetEpoch(topo.Epoch)
		}
		t, committed, maxGSN, err := openTxnLog(opts.TxnFS, opts.TxnDir)
		if err != nil {
			return nil, err
		}
		s.txn = t
		s.gsn.Store(maxGSN)
		filter = func(gsn uint64) bool { return committed[gsn] }
	}

	workers := make([]*worker, 0, opts.Workers)
	fail := func(err error) (*Store, error) {
		for _, w := range workers {
			w.stop(time.Time{})
		}
		if s.txn != nil {
			s.txn.close()
		}
		return nil, err
	}
	for i := 0; i < opts.Workers; i++ {
		engine, err := opts.EngineFactory(i, filter)
		if err != nil {
			return fail(err)
		}
		w := newWorker(i, engine, opts)
		w.gsnSrc = &s.gsn
		w.txn = s.txn
		w.cache = s.cache
		w.resh = &s.resh
		workers = append(workers, w)
	}

	// A crash after a reshard's commit point but before its cleanup
	// finished leaves TOPOLOGY in the cleanup state: the new ring is
	// committed, but moved ranges may still sit on their old owners and
	// retired instance directories may remain. Finish the job before
	// serving — the workers are not started yet, so direct engine access
	// is safe.
	if topo != nil && topo.State == reshard.TopologyCleanup {
		for i, w := range workers {
			if _, err := deleteForeignDirect(w.engine, opts.Partitioner, i); err != nil {
				return fail(fmt.Errorf("core: recovering interrupted reshard cleanup on worker %d: %w", i, err))
			}
		}
		if opts.InstanceReset != nil {
			for id := topo.Workers; id < topo.PrevWorkers; id++ {
				if err := opts.InstanceReset(id); err != nil {
					return fail(fmt.Errorf("core: retiring worker %d instance: %w", id, err))
				}
			}
		}
		topo.State = reshard.TopologyActive
		if err := reshard.SaveTopology(opts.TxnFS, opts.TxnDir, *topo); err != nil {
			return fail(err)
		}
	}

	part := opts.Partitioner
	if s.ring != nil {
		c, _ := s.ring.Snapshot()
		part = c
	}
	s.route.Store(&routing{part: part, workers: workers})
	for _, w := range workers {
		w.start()
	}
	s.scrubber = scrub.NewRunner(opts.ScrubInterval, opts.ScrubRate, s.Scrub)
	return s, nil
}

// ScrubStatus reports the background scrubber's most recent pass; the zero
// Status when background scrubbing is disabled.
func (s *Store) ScrubStatus() scrub.Status {
	return s.scrubber.Status()
}

func (s *Store) pick(key []byte) *worker {
	return s.route.Load().pick(key)
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
// single gate every request passes: already-expired contexts fail here
// (the request never enters the queue), a full queue behaves per
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
	switch s.opts.Admission {
	case AdmitReject:
		err := w.q.tryPush(r)
		if errors.Is(err, kv.ErrOverloaded) {
			w.rejected.Add(1)
			err = fmt.Errorf("core: shard %d: %w", w.id, kv.ErrOverloaded)
		}
		return err
	case AdmitWait:
		if ctx == nil {
			err := w.q.tryPush(r)
			if errors.Is(err, kv.ErrOverloaded) {
				w.rejected.Add(1)
				err = fmt.Errorf("core: shard %d: bounded wait requires a deadline: %w", w.id, kv.ErrOverloaded)
			}
			return err
		}
		err := w.q.pushWait(done, r)
		if errors.Is(err, kv.ErrDeadlineExceeded) {
			w.expired.Add(1)
			return ctxError(ctx.Err())
		}
		return err
	default: // AdmitBlock
		err := w.q.pushWait(done, r)
		if errors.Is(err, kv.ErrDeadlineExceeded) {
			w.expired.Add(1)
			return ctxError(ctx.Err())
		}
		return err
	}
}

// waitDone blocks until the worker completes r (admitted via admit, with
// r.done set). When the request's context ends first, the caller unblocks
// with kv.ErrDeadlineExceeded and the worker sheds the orphaned request
// when it reaches it (nobody reads its result).
func (s *Store) waitDone(w *worker, r *request) error {
	if r.ctx == nil {
		<-r.done
		return r.err
	}
	select {
	case <-r.done:
		return r.err
	case <-r.ctx.Done():
		w.expired.Add(1)
		return ctxError(r.ctx.Err())
	}
}

// submitCtx routes r by key, admits it under the routing read lock, and
// waits for completion with the lock released.
func (s *Store) submitCtx(ctx context.Context, key []byte, r *request) error {
	r.done = make(chan struct{})
	s.routeMu.RLock()
	w := s.route.Load().pick(key)
	err := s.admit(ctx, w, r)
	s.routeMu.RUnlock()
	if err != nil {
		return err
	}
	return s.waitDone(w, r)
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

// writeOne routes, health-checks and admits a single-key write under one
// routing read lock. With cb nil it waits for completion (sync path);
// otherwise cb runs on the worker when the write completes (async path).
func (s *Store) writeOne(ctx context.Context, op wop, cb func(error)) error {
	r := &request{typ: reqWrite, batch: batchRef{ops: []wop{op}}}
	if cb != nil {
		r.callback = cb
	} else {
		r.done = make(chan struct{})
	}
	s.routeMu.RLock()
	w := s.route.Load().pick(op.key)
	err := s.writeAdmitErr(w)
	if err == nil {
		err = s.admit(ctx, w, r)
	}
	s.routeMu.RUnlock()
	if err != nil || cb != nil {
		return err
	}
	return s.waitDone(w, r)
}

// Put implements kv.Engine (①②③ in Figure 9b: submit, enqueue, sleep
// until the worker completes the request).
func (s *Store) Put(key, value []byte) error {
	return s.PutCtx(nil, key, value)
}

// PutCtx is Put bounded by a context: the deadline covers queue admission,
// queue wait and execution, and an expired request never reaches the
// engine.
func (s *Store) PutCtx(ctx context.Context, key, value []byte) error {
	return s.writeOne(ctx, wop{key: key, value: value}, nil)
}

// Delete implements kv.Engine.
func (s *Store) Delete(key []byte) error {
	return s.DeleteCtx(nil, key)
}

// DeleteCtx is Delete bounded by a context.
func (s *Store) DeleteCtx(ctx context.Context, key []byte) error {
	return s.writeOne(ctx, wop{del: true, key: key}, nil)
}

// PutAsync is the asynchronous write interface (§4.1): it enqueues and
// returns immediately; cb runs on the worker when the write completes.
// Backpressure applies when the worker queue is full.
func (s *Store) PutAsync(key, value []byte, cb func(error)) error {
	return s.PutAsyncCtx(nil, key, value, cb)
}

// PutAsyncCtx is PutAsync under a context: admission respects the
// deadline, and a request that expires while queued is shed — cb then
// receives kv.ErrDeadlineExceeded.
func (s *Store) PutAsyncCtx(ctx context.Context, key, value []byte, cb func(error)) error {
	return s.writeOne(ctx, wop{key: key, value: value}, cb)
}

// DeleteAsync is the asynchronous deletion interface.
func (s *Store) DeleteAsync(key []byte, cb func(error)) error {
	return s.DeleteAsyncCtx(nil, key, cb)
}

// DeleteAsyncCtx is DeleteAsync under a context.
func (s *Store) DeleteAsyncCtx(ctx context.Context, key []byte, cb func(error)) error {
	return s.writeOne(ctx, wop{del: true, key: key}, cb)
}

// Get implements kv.Engine.
func (s *Store) Get(key []byte) ([]byte, error) {
	return s.GetCtx(nil, key)
}

// GetCtx is Get bounded by a context. With the hot-key cache enabled, a
// hit is served here — no queue admission, no worker round-trip; a miss
// snapshots the key's invalidation watermark before the read is
// submitted and fills the cache only if no write bumped it meanwhile.
func (s *Store) GetCtx(ctx context.Context, key []byte) ([]byte, error) {
	if v, neg, ok := s.cache.Get(key); ok {
		if neg {
			return nil, kv.ErrNotFound
		}
		return v, nil
	}
	ticket := s.cache.Snapshot(key)
	r := &request{typ: reqRead, key: key}
	if err := s.submitCtx(ctx, key, r); err != nil {
		return nil, err
	}
	s.cache.Fill(key, r.val, !r.found, ticket)
	if !r.found {
		return nil, kv.ErrNotFound
	}
	return r.val, nil
}

// GetAsync is the asynchronous read interface; cb receives the value (nil
// when absent along with kv.ErrNotFound).
func (s *Store) GetAsync(key []byte, cb func([]byte, error)) error {
	return s.GetAsyncCtx(nil, key, cb)
}

// GetAsyncCtx is GetAsync under a context. A hot-cache hit runs cb
// synchronously, before GetAsyncCtx returns — the read never enters a
// queue.
func (s *Store) GetAsyncCtx(ctx context.Context, key []byte, cb func([]byte, error)) error {
	if v, neg, ok := s.cache.Get(key); ok {
		if neg {
			cb(nil, kv.ErrNotFound)
		} else {
			cb(v, nil)
		}
		return nil
	}
	ticket := s.cache.Snapshot(key)
	r := &request{typ: reqRead, key: key}
	r.callback = func(err error) {
		if err != nil {
			cb(nil, err)
			return
		}
		s.cache.Fill(key, r.val, !r.found, ticket)
		if !r.found {
			cb(nil, kv.ErrNotFound)
			return
		}
		cb(r.val, nil)
	}
	s.routeMu.RLock()
	w := s.route.Load().pick(key)
	err := s.admit(ctx, w, r)
	s.routeMu.RUnlock()
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
	reqs := make([]*request, len(keys))
	var wg sync.WaitGroup
	var firstErr error
	var mu sync.Mutex
	s.routeMu.RLock()
	rt := s.route.Load()
	for i, k := range keys {
		if v, neg, ok := s.cache.Get(k); ok {
			if !neg {
				out[i] = v
			}
			continue // negative hit: out[i] stays nil = not found
		}
		ticket := s.cache.Snapshot(k)
		r := &request{typ: reqRead, key: k}
		reqs[i] = r
		wg.Add(1)
		r.callback = func(err error) {
			if err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
			} else {
				s.cache.Fill(r.key, r.val, !r.found, ticket)
			}
			wg.Done()
		}
		if err := s.admit(ctx, rt.pick(k), r); err != nil {
			r.callback(err)
			break // short-circuit: don't amplify overload with more legs
		}
	}
	s.routeMu.RUnlock()
	if err := waitCtx(liveCtx(ctx), &wg); err != nil {
		return nil, err
	}
	mu.Lock()
	defer mu.Unlock()
	if firstErr != nil {
		return nil, firstErr
	}
	for i, r := range reqs {
		if r != nil && r.found {
			out[i] = r.val
		}
	}
	return out, nil
}

// waitCtx waits for wg, bounded by ctx (already normalized via liveCtx;
// nil waits forever). An early ctx return leaves the stragglers to the
// workers — they shed or complete orphaned legs whose results nobody
// reads.
func waitCtx(ctx context.Context, wg *sync.WaitGroup) error {
	if ctx == nil {
		wg.Wait()
		return nil
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctxError(ctx.Err())
	}
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
// like any other failed leg.
func (s *Store) WriteCtx(ctx context.Context, b *kv.Batch) error {
	if b.Len() == 0 {
		return nil
	}
	s.routeMu.RLock()
	rt := s.route.Load()
	subs := rt.split(b)
	if len(subs) == 1 {
		for w, ref := range subs {
			err := s.writeAdmitErr(w)
			var r *request
			if err == nil {
				r = &request{typ: reqWrite, batch: *ref, done: make(chan struct{})}
				err = s.admit(ctx, w, r)
			}
			s.routeMu.RUnlock()
			if err != nil {
				return err
			}
			return s.waitDone(w, r)
		}
	}
	s.routeMu.RUnlock()
	commit, err := s.writePrepared(ctx, b)
	if err != nil {
		return err
	}
	return commit()
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
	return s.writePrepared(nil, b)
}

func (s *Store) writePrepared(ctx context.Context, b *kv.Batch) (commit func() error, err error) {
	if s.txn == nil {
		return nil, errors.New("core: cross-partition batch requires Options.TxnFS for atomicity")
	}
	ctx = liveCtx(ctx)
	// Split, health-check and admit under one routing read lock: every
	// leg of the transaction targets the owner of its keys under a
	// single ring generation, and a reshard cutover cannot slip between
	// the split and the enqueues.
	s.routeMu.RLock()
	rt := s.route.Load()
	subs := rt.split(b)
	// Fail fast before persisting the transaction begin: a degraded shard
	// cannot apply its piece (and an already-dead context never will), so
	// the whole transaction would only be rolled back at recovery anyway.
	for w := range subs {
		if err := s.writeAdmitErr(w); err != nil {
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
	var wg sync.WaitGroup
	errs := make([]error, 0, len(subs))
	var mu sync.Mutex
	for w, ref := range subs {
		r := &request{typ: reqWrite, batch: *ref, gsn: gsn, noMerge: true}
		r.callback = func(err error) {
			mu.Lock()
			errs = append(errs, err)
			mu.Unlock()
			wg.Done()
		}
		wg.Add(1)
		// Every leg shares ctx, so all legs observe one deadline.
		if err := s.admit(ctx, w, r); err != nil {
			wg.Done()
			mu.Lock()
			errs = append(errs, err)
			mu.Unlock()
		}
	}
	s.routeMu.RUnlock()
	if err := waitCtx(ctx, &wg); err != nil {
		// Deadline fired mid-transaction: leave it uncommitted, recovery
		// rolls every applied leg back.
		s.txn.abandon(gsn)
		settle()
		return nil, err
	}
	mu.Lock()
	defer mu.Unlock()
	for _, err := range errs {
		if err != nil {
			// Leave the transaction uncommitted: recovery rolls it back
			// on every instance.
			s.txn.abandon(gsn)
			settle()
			return nil, err
		}
	}
	return func() error {
		defer settle()
		return s.txn.commit(gsn)
	}, nil
}

// ---------------------------------------------------------------------------
// Range queries (§4.4)
// ---------------------------------------------------------------------------

// Pair is a key/value result.
type Pair struct {
	Key   []byte
	Value []byte
}

// scanFan admits one scan leg per worker under a single routing read
// lock, then waits for the legs with the lock released. On elastic
// stores each leg carries an ownership filter for the captured ring
// generation: during a reshard (and until its cleanup finishes) a
// worker's engine may hold keys it does not own — stale moved ranges on
// old owners, bulk-copied pairs on new ones — and exactly one leg owns
// each key, so the union is exact with no duplicates or phantoms.
func (s *Store) scanFan(ctx context.Context, mk func() *request) ([]Pair, error) {
	if s.closed.Load() {
		return nil, kv.ErrClosed
	}
	s.routeMu.RLock()
	rt := s.route.Load()
	legs := make([]*request, len(rt.workers))
	admitErrs := make([]error, len(rt.workers))
	for i, w := range rt.workers {
		r := mk()
		r.done = make(chan struct{})
		if s.ring != nil {
			r.scanPart, r.scanSelf = rt.part, i
		}
		legs[i] = r
		admitErrs[i] = s.admit(ctx, w, r)
	}
	s.routeMu.RUnlock()
	var firstErr error
	for i, r := range legs {
		if admitErrs[i] != nil {
			if firstErr == nil {
				firstErr = admitErrs[i]
			}
			continue
		}
		if err := s.waitDone(rt.workers[i], r); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	var all []Pair
	for _, r := range legs {
		for _, p := range r.scanOut {
			all = append(all, Pair{Key: p[0], Value: p[1]})
		}
	}
	sort.Slice(all, func(i, j int) bool { return bytes.Compare(all[i].Key, all[j].Key) < 0 })
	return all, nil
}

// Range reads every live pair with begin <= key <= end. The request is
// forked into per-instance sub-RANGEs executed in parallel and merged —
// no extra reads, since partitions are disjoint.
func (s *Store) Range(begin, end []byte) ([]Pair, error) {
	return s.RangeCtx(nil, begin, end)
}

// RangeCtx is Range bounded by one context shared by every sub-RANGE leg.
func (s *Store) RangeCtx(ctx context.Context, begin, end []byte) ([]Pair, error) {
	return s.scanFan(ctx, func() *request {
		return &request{typ: reqScan, scanStart: begin, scanEnd: end, scanLimit: int(^uint(0) >> 1)}
	})
}

// Scan reads up to n pairs with key >= start. Under ScanParallel every
// instance scans n pairs and the union is filtered (extra reads traded
// for parallelism, §4.4); under ScanMerged a global merged iterator reads
// exactly n pairs serially.
func (s *Store) Scan(start []byte, n int) ([]Pair, error) {
	return s.ScanCtx(nil, start, n)
}

// ScanCtx is Scan bounded by one context shared by every scan leg.
func (s *Store) ScanCtx(ctx context.Context, start []byte, n int) ([]Pair, error) {
	if n <= 0 {
		return nil, nil
	}
	if s.opts.Scan == ScanMerged {
		return s.scanMerged(start, n)
	}
	all, err := s.scanFan(ctx, func() *request {
		return &request{typ: reqScan, scanStart: start, scanLimit: n}
	})
	if err != nil {
		return nil, err
	}
	if len(all) > n {
		all = all[:n]
	}
	return all, nil
}

func (s *Store) scanMerged(start []byte, n int) ([]Pair, error) {
	it, err := s.NewIterator()
	if err != nil {
		return nil, err
	}
	defer it.Close()
	var out []Pair
	if start == nil {
		it.SeekToFirst()
	} else {
		it.Seek(start)
	}
	for ; it.Valid() && len(out) < n; it.Next() {
		out = append(out, Pair{
			Key:   append([]byte(nil), it.Key()...),
			Value: append([]byte(nil), it.Value()...),
		})
	}
	return out, it.Error()
}

// NewIterator implements kv.Engine with a global merged iterator over the
// per-instance iterators — the RocksDB-MergeIterator-style construction
// from §4.4. It bypasses the worker queues (engines are thread-safe and
// iterators snapshot). On elastic stores the merged view filters each
// child by key ownership under the captured ring generation, so stale
// moved ranges awaiting cleanup (or mid-copy duplicates) are never
// yielded; children are created under the routing read lock so the
// worker set cannot be retired mid-construction.
func (s *Store) NewIterator() (kv.Iterator, error) {
	if s.closed.Load() {
		return nil, kv.ErrClosed
	}
	s.routeMu.RLock()
	rt := s.route.Load()
	children := make([]kv.Iterator, 0, len(rt.workers))
	for _, w := range rt.workers {
		it, err := w.engine.NewIterator()
		if err != nil {
			s.routeMu.RUnlock()
			for _, c := range children {
				c.Close()
			}
			return nil, err
		}
		children = append(children, it)
	}
	s.routeMu.RUnlock()
	m := &mergedIter{children: children}
	if s.ring != nil {
		m.part = rt.part
	}
	return m, nil
}

// ---------------------------------------------------------------------------
// Lifecycle / stats
// ---------------------------------------------------------------------------

// Flush implements kv.Engine: flushes every instance.
func (s *Store) Flush() error {
	if s.closed.Load() {
		return kv.ErrClosed
	}
	for _, w := range s.ws() {
		if err := w.engine.Flush(); err != nil {
			return err
		}
	}
	return nil
}

// Caps reports the store's capabilities (batch writes always; reads are
// per-key with internal OBM batching).
func (s *Store) Caps() kv.Caps { return kv.Caps{BatchWrite: true} }

// Workers reports the current worker count (it changes when an elastic
// store reshards).
func (s *Store) Workers() int { return len(s.ws()) }

// Engine exposes worker i's engine for instrumentation (benchmarks pull
// per-instance Perf counters).
func (s *Store) Engine(i int) kv.Engine { return s.ws()[i].engine }

// Stats aggregates per-worker activity.
func (s *Store) Stats() []WorkerStats {
	workers := s.ws()
	out := make([]WorkerStats, len(workers))
	for i, w := range workers {
		out[i] = w.stats()
	}
	return out
}

// Resume implements kv.Resumer by fanning out to every worker engine that
// supports it, re-attempting recovery of degraded shards. Healthy shards
// treat it as a no-op.
func (s *Store) Resume() error {
	if s.closed.Load() {
		return kv.ErrClosed
	}
	var firstErr error
	for _, w := range s.ws() {
		if r, ok := w.engine.(kv.Resumer); ok {
			if err := r.Resume(); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	return firstErr
}

// Scrub implements kv.Scrubber by fanning out to every worker engine that
// supports it, in parallel — shards are independent stores on independent
// directories, and the caller's rate limiter is shared, so the aggregate
// read rate still honors the budget. Engines without scrub support are
// skipped (they contribute nothing to the result).
func (s *Store) Scrub(ctx context.Context, lim kv.RateLimiter) (kv.ScrubResult, error) {
	if s.closed.Load() {
		return kv.ScrubResult{}, kv.ErrClosed
	}
	workers := s.ws()
	results := make([]kv.ScrubResult, len(workers))
	errs := make([]error, len(workers))
	var wg sync.WaitGroup
	for i, w := range workers {
		sc, ok := w.engine.(kv.Scrubber)
		if !ok {
			continue
		}
		wg.Add(1)
		go func(i int, sc kv.Scrubber) {
			defer wg.Done()
			results[i], errs[i] = sc.Scrub(ctx, lim)
		}(i, sc)
	}
	wg.Wait()
	var res kv.ScrubResult
	var firstErr error
	for i := range results {
		stats.Merge(&res, results[i])
		if errs[i] != nil && firstErr == nil {
			firstErr = errs[i]
		}
	}
	return res, firstErr
}

// Close implements kv.Engine: drains queues, stops workers, closes
// instances and the transaction log. A crash of any worker engine close
// is reported but the remaining workers still close (§4.6: a crash of any
// worker triggers closing the whole system).
//
// With Options.DrainTimeout > 0 the drain is bounded by one shared
// deadline across all workers: requests still queued when it passes
// complete with kv.ErrClosed instead of Close hanging behind a stalled
// engine, and the wedge is reported in Close's error.
//
// An in-flight Reshard observes the close through its own enqueue
// failures, aborts, and stops the workers it spawned itself.
func (s *Store) Close() error {
	if !s.closed.CompareAndSwap(false, true) {
		return nil
	}
	s.scrubber.Close() // aborts an in-flight pass; nil-safe
	var deadline time.Time
	if s.opts.DrainTimeout > 0 {
		deadline = time.Now().Add(s.opts.DrainTimeout)
	}
	var firstErr error
	for _, w := range s.ws() {
		if err := w.stop(deadline); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	// Workers parked by a shrink keep their engines open for iterator
	// safety; close them now.
	s.retiredMu.Lock()
	retired := s.retired
	s.retired = nil
	s.retiredMu.Unlock()
	for _, w := range retired {
		if err := w.engine.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if s.txn != nil {
		if err := s.txn.close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// ---------------------------------------------------------------------------
// Merged iterator
// ---------------------------------------------------------------------------

type mergedIter struct {
	children []kv.Iterator
	cur      int // index of child with the smallest key, -1 when invalid
	err      error
	// part, when non-nil, filters child i to the keys it owns under the
	// routing generation the iterator was created against (elastic
	// stores only): a stale copy of a moved key on its old owner must
	// not shadow — or duplicate — the authoritative copy. In steady
	// state no child holds foreign keys and the filter never skips.
	part keyspace.Partitioner
}

// skipForeign advances each child past keys it does not own.
func (m *mergedIter) skipForeign() {
	if m.part == nil {
		return
	}
	for i, c := range m.children {
		for c.Valid() && m.part.Pick(c.Key()) != i {
			c.Next()
		}
	}
}

func (m *mergedIter) refresh() {
	m.skipForeign()
	m.cur = -1
	for i, c := range m.children {
		if err := c.Error(); err != nil && m.err == nil {
			m.err = err
		}
		if !c.Valid() {
			continue
		}
		if m.cur < 0 || bytes.Compare(c.Key(), m.children[m.cur].Key()) < 0 {
			m.cur = i
		}
	}
}

func (m *mergedIter) SeekToFirst() {
	for _, c := range m.children {
		c.SeekToFirst()
	}
	m.refresh()
}

func (m *mergedIter) Seek(target []byte) {
	for _, c := range m.children {
		c.Seek(target)
	}
	m.refresh()
}

func (m *mergedIter) Next() {
	if m.cur < 0 {
		return
	}
	m.children[m.cur].Next()
	m.refresh()
}

func (m *mergedIter) Valid() bool   { return m.err == nil && m.cur >= 0 }
func (m *mergedIter) Key() []byte   { return m.children[m.cur].Key() }
func (m *mergedIter) Value() []byte { return m.children[m.cur].Value() }
func (m *mergedIter) Error() error  { return m.err }

func (m *mergedIter) Close() error {
	var first error
	for _, c := range m.children {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
