package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"p2kvs/internal/hotcache"
	"p2kvs/internal/kv"
	"p2kvs/internal/reshard"
	"p2kvs/internal/scrub"
	"p2kvs/internal/stats"
)

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

	// resh is the active resharding run (nil in steady state); workers
	// consult it on every applied write batch to double-write moved keys.
	// reshMu serializes Reshard calls and keeps a checkpoint's barrier out
	// of one (Checkpoint; taken before ckptMu); tracker feeds reshard_*
	// stats; epoch is the committed ring generation (persisted in TOPOLOGY).
	resh    atomic.Pointer[reshardRun]
	reshMu  sync.Mutex
	tracker reshard.Tracker
	epoch   atomic.Uint64
	// txnGate keeps every cut out of a cross-partition transaction: write
	// holds the read side from before its begin record to its commit
	// record or its failure, taken under routeMu's read side (lock order
	// routeMu, then txnGate); Checkpoint holds the write side across its
	// barrier and capture, and a reshard cutover takes it with TryLock
	// inside its budget. So no image and no ring flip lands between a
	// transaction's applied legs and its commit record.
	txnGate sync.RWMutex
	// scans counts the ScanCtx calls in flight, on either path (ScanCtx
	// picks the path from it).
	scans atomic.Int64
	// retired holds workers dropped by a shrink: their goroutines are
	// parked and they receive no traffic, but their engines stay open —
	// until Close, or until a grow reuses the id and must wipe the
	// directory — so iterators created before the cutover remain valid.
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
	// entirely; workers write through it on apply, so a cached value is
	// never served past the acknowledgement of a write that supersedes
	// it. Built fresh at Open — it never survives a crash or
	// restore, so it cannot resurrect pre-reopen state.
	cache *hotcache.Cache
}

var _ kv.Engine = (*Store)(nil)
var _ kv.BatchWriter = (*Store)(nil)

// ws returns the current routing generation's worker set.
func (s *Store) ws() []*worker { return s.route.Load().workers }

// Open builds the store: recovers the transaction log, opens every
// worker's instance (rolling back uncommitted cross-instance
// transactions), starts the log afresh, and starts the worker threads.
// It checks the worker count against the persisted topology (recording
// it in a new directory) and finishes a reshard cleanup interrupted by a
// crash.
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
				return nil, fmt.Errorf("core: store topology records %d workers but Options.Workers is %d — a store must be reopened at its recorded worker count",
					topo.Workers, opts.Workers)
			}
			s.epoch.Store(topo.Epoch)
			s.tracker.Update(func(st *reshard.Stats) { st.Epoch = topo.Epoch })
		}
		committed, maxGSN, err := readTxnLog(opts.TxnFS, opts.TxnDir)
		if err != nil {
			return nil, err
		}
		s.gsn.Store(maxGSN)
		filter = func(gsn uint64) bool { return committed[gsn] }
	}

	workers := make([]*worker, 0, opts.Workers)
	fail := func(err error) (*Store, error) {
		for _, w := range workers {
			w.stop(time.Time{}, nil)
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
		workers = append(workers, s.newWorker(i, engine))
	}
	if opts.TxnFS != nil {
		// Every engine has settled its log (lsm replayed and flushed its
		// WALs; the others tag no leg), so no record from before this Open
		// decides anything any more. The log starts afresh with one commit
		// record, of the high-water mark the next Open continues from; no
		// leg carries that GSN, so calling it committed is safe.
		w, err := rewriteTxnLog(opts.TxnFS, opts.TxnDir, map[uint64]bool{s.gsn.Load(): true})
		if err != nil {
			return fail(err)
		}
		s.txn = &txnLog{fs: opts.TxnFS, dir: opts.TxnDir, w: w}
	}

	if opts.TxnFS != nil && topo == nil {
		// A new directory records the count its keys are placed by: a
		// later Open at another count would route them to the wrong
		// instances.
		t := reshard.Topology{Workers: opts.Workers, PrevWorkers: opts.Workers, State: reshard.TopologyActive}
		if err := reshard.SaveTopology(opts.TxnFS, opts.TxnDir, t); err != nil {
			return fail(err)
		}
	}
	s.route.Store(&routing{part: opts.Partitioner, workers: workers})
	for _, w := range workers {
		w.start()
	}

	// A crash after a reshard's commit point but before its cleanup
	// finished leaves TOPOLOGY in the cleanup state: the new ring is
	// committed, but moved ranges may still sit on their old owners and
	// retired instance directories may remain. Finish the job before
	// serving — the workers run, but nobody else holds the store yet.
	if topo != nil && topo.State == reshard.TopologyCleanup {
		if err := purgeForeign(workers, opts.Partitioner); err != nil {
			return fail(fmt.Errorf("core: recovering interrupted reshard cleanup on %w", err))
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
	s.scrubber = scrub.NewRunner(opts.ScrubInterval, opts.ScrubRate, s.Scrub)
	return s, nil
}

// ScrubStatus reports the background scrubber's most recent pass; the zero
// Status when background scrubbing is disabled.
func (s *Store) ScrubStatus() scrub.Status {
	return s.scrubber.Status()
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

// Resume fans kv.HealthReporter's Resume out to every worker engine that has
// it, re-attempting recovery of degraded shards, and heals the transaction
// log if a failed append tainted it. Healthy shards (and a healthy log)
// treat it as a no-op.
func (s *Store) Resume() error {
	if s.closed.Load() {
		return kv.ErrClosed
	}
	var firstErr error
	if s.txn != nil {
		// Not under a checkpoint: it copies a prefix of the file heal
		// replaces.
		s.ckptMu.Lock()
		firstErr = s.txn.heal()
		s.ckptMu.Unlock()
	}
	for _, w := range s.ws() {
		if w.hr != nil {
			if err := w.hr.Resume(); err != nil && firstErr == nil {
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
	legs := newFanIn()
	for i, w := range workers {
		sc := w.sc
		if sc == nil {
			continue
		}
		legs.add()
		go func(i int, sc kv.Scrubber) {
			var err error
			results[i], err = sc.Scrub(ctx, lim)
			legs.finish(err)
		}(i, sc)
	}
	_, err := legs.wait(nil) // a leg watches ctx itself
	var res kv.ScrubResult
	for i := range results {
		stats.Merge(&res, results[i])
	}
	return res, err
}

// fenceSubmitters passes through the routing write lock once: closed is
// set, so once it is through nobody is left between picking a worker and
// leaving its queue or — a direct read or write (Store.direct) — its engine.
// fenced closes at that point, and no engine is closed before it
// (worker.stop). A non-zero deadline bounds the wait here, as it bounds a
// worker's drain, not that rule: a direct call wedged in a stalled engine
// leaves fenced open past the deadline, and the engines close behind it
// whenever it returns.
func (s *Store) fenceSubmitters(deadline time.Time) (fenced <-chan struct{}) {
	through := make(chan struct{})
	fence := func() {
		s.routeMu.Lock()
		s.routeMu.Unlock()
		close(through)
	}
	if deadline.IsZero() {
		fence()
		return through
	}
	go fence()
	timer := time.NewTimer(time.Until(deadline))
	defer timer.Stop()
	select {
	case <-through:
	case <-timer.C:
	}
	return through
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
	workers := s.ws()
	for _, w := range workers {
		w.q.close() // a submitter blocked on a full queue leaves with kv.ErrClosed
	}
	fenced := s.fenceSubmitters(deadline)
	var firstErr error
	for _, w := range workers {
		if err := w.stop(deadline, fenced); err != nil && firstErr == nil {
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
