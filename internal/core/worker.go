package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"p2kvs/internal/hotcache"
	"p2kvs/internal/kv"
	"p2kvs/internal/repl"
	"p2kvs/internal/reshard"
)

// worker owns one KVS instance, one request queue, and one goroutine —
// the horizontal dimension of p2KVS (§4.1). The worker never proactively
// waits for requests to accumulate: batching is opportunistic.
type worker struct {
	id     int
	engine kv.Engine
	q      *reqQueue
	obm    bool
	max    int

	wg sync.WaitGroup

	// exec admits one runner of the queue, so one writer to the instance:
	// the worker loop around each run (a barrier parked there holds it too)
	// or a synchronous writer that took it with TryLock (lead). Whoever
	// holds it owns the scratch below, ship's GSN order and lastGSN.
	exec sync.Mutex

	// What the engine can do beyond kv.Engine, asked once (newWorker); nil
	// means it cannot and the fallback runs. bw and mg are nil too when the
	// engine's Caps disown the method.
	bw kv.BatchWriter             // else one Put/Delete per op
	gw kv.GSNWriter               // else transaction legs commit untagged
	mg kv.MultiGetter             // else a read run issues concurrent Gets
	hr kv.HealthReporter          // else always healthy, nothing to resume
	cr kv.CompactionStatsReporter // else zero compaction stats
	ck kv.Checkpointer            // else Checkpoint refuses the store
	sc kv.Scrubber                // else Scrub skips the shard

	// Scratch of exec's holder, reused from one run to the next: the
	// popped run, the concatenated ops of a merged write run, the engine
	// batch that wraps a commit's ops, the keys of a merged read run. The
	// ops and keys alias submitters' buffers, so each is cleared once the
	// engine call and its followers (repl.Log.Append, mirrorMoved and the
	// hot cache's write-through copy what they keep) are done with it —
	// before any submitter is told it may reuse those buffers.
	runScratch []*request
	opsScratch []kv.BatchOp
	batch      kv.Batch
	keyScratch [][]byte

	// Stats, each the WorkerStats field of its name, counted by whichever
	// goroutine did the work: the worker's, or a submitter's (readLeg, a
	// caller-led run in execute).
	ops           atomic.Int64
	batches       atomic.Int64
	batchedOps    atomic.Int64
	queueWaitNs   atomic.Int64
	busyNs        atomic.Int64
	directReads   atomic.Int64
	directWrites  atomic.Int64
	batchWriteOps atomic.Int64
	multiGetOps   atomic.Int64
	rejected      atomic.Int64
	expired       atomic.Int64
	shed          atomic.Int64

	// ckpt is what Store.Checkpoint has materialized of this engine's
	// images, replaced whole after each one (checkpoints run one at a time).
	ckpt atomic.Pointer[kv.CheckpointStats]

	// lastGSN is this worker's replication stream cursor: the GSN of its
	// last shipped write batch (ship), zero with replication off. A
	// checkpoint barrier records it as the manifest's WorkerGSN. Written
	// only under exec, read by the coordinator.
	lastGSN atomic.Uint64

	// repl, when non-nil, receives every applied write batch (the
	// replication backlog); gsnSrc is the store's global GSN counter,
	// from which shipped records draw their apply-time GSN.
	repl   *repl.Log
	gsnSrc *atomic.Uint64

	// cache is the store's hot-key read cache (nil when disabled). exec's
	// holder writes every op through it (commit) after the engine applied
	// it and before any submitter is woken.
	cache *hotcache.Cache

	// resh points at the store's active-reshard slot: exec's holder
	// mirrors every applied op whose key has moved (mirrorMoved), so the
	// mirror stream keeps this instance's apply order per key.
	resh *atomic.Pointer[reshardRun]
}

// newWorker wires worker id over engine to the store's shared state; the
// caller starts it.
func (s *Store) newWorker(id int, engine kv.Engine) *worker {
	opts := s.opts
	w := &worker{
		id:     id,
		engine: engine,
		q:      newReqQueue(opts.QueueDepth),
		obm:    opts.OBM,
		max:    opts.MaxBatch,
		repl:   opts.ReplLog,
		gsnSrc: &s.gsn,
		cache:  s.cache,
		resh:   &s.resh,
	}
	caps := kv.CapsOf(engine)
	if caps.BatchWrite {
		w.bw, _ = w.engine.(kv.BatchWriter)
		w.gw, _ = w.engine.(kv.GSNWriter)
	}
	if caps.MultiGet {
		w.mg, _ = w.engine.(kv.MultiGetter)
	}
	w.hr, _ = w.engine.(kv.HealthReporter)
	w.cr, _ = w.engine.(kv.CompactionStatsReporter)
	w.ck, _ = w.engine.(kv.Checkpointer)
	w.ckpt.Store(new(kv.CheckpointStats))
	w.sc, _ = w.engine.(kv.Scrubber)
	return w
}

// degradedErr fast-fails write submission when this worker's engine is in
// read-only degraded mode, so writes bounce at the accessing layer instead
// of queueing behind a shard that cannot commit them. Reads are unaffected.
// The engine's own error is chained in so callers (the server's error
// mapper in particular) can classify the cause — e.g. vfs.IsNoSpace for
// disk-full replies.
func (w *worker) degradedErr() error {
	if w.hr == nil {
		return nil
	}
	if h := w.hr.Health(); h.State == kv.StateReadOnly {
		if h.Err != nil {
			return fmt.Errorf("core: shard %d: %w: %w", w.id, kv.ErrDegraded, h.Err)
		}
		return fmt.Errorf("core: shard %d: %w", w.id, kv.ErrDegraded)
	}
	return nil
}

func (w *worker) start() {
	w.wg.Add(1)
	go w.loop()
}

// loop is the worker thread (Figure 9b): wait for a request (❶), then
// under exec run the head of the queue (❷, ❸). It pops nothing before it
// holds exec, so a caller leading meanwhile (lead) runs what is ahead of it.
func (w *worker) loop() {
	defer w.wg.Done()
	for w.q.wait() {
		w.exec.Lock()
		w.runHead(nil)
		w.exec.Unlock()
	}
}

// lead is a synchronous writer's side of the one write path, under exec: it
// appends r and runs the head until r has run (so OBM merges what it may with
// r), or until a closure at the head leaves r to the worker.
func (w *worker) lead(r *request) {
	w.q.lead(r)
	for w.q.led == 1 && w.runHead(r) {
	}
	if w.q.led == 1 {
		w.q.leave(r)
	}
}

// runHead pops the head run of w's queue (shedding expired requests), runs
// it and reports a pop; only exec's holder calls it. own is a leader's own,
// uncounted request, its run caller-led (execute), or nil on the worker.
func (w *worker) runHead(own *request) bool {
	reqs, expired := w.q.popBatch(w.obm, w.max, own, w.runScratch)
	for _, r := range expired {
		w.shed.Add(1)
		r.complete(ctxError(r.ctx.Err()))
	}
	popped := len(reqs) + len(expired)
	counted := popped
	if own != nil && w.q.led == 0 {
		counted-- // own ran, and was never counted
	}
	if len(reqs) > 0 {
		w.execute(reqs, own != nil)
		clear(reqs) // completed requests belong to their submitters again
		w.runScratch = reqs
	}
	// Only now, with the run applied: a direct read that finds pending
	// zero must find every earlier submission in the engine.
	if counted > 0 {
		w.q.pending.Add(-int64(counted))
	}
	return popped > 0
}

// execute runs one popped run: a caller-led one (led) counts as DirectReads
// or DirectWrites, its writes fenced first (§14), the worker's as Ops.
func (w *worker) execute(reqs []*request, led bool) {
	var now time.Time
	if !led {
		now = time.Now()
		for _, r := range reqs {
			w.queueWaitNs.Add(int64(now.Sub(r.enqueuedAt)))
		}
		w.ops.Add(int64(len(reqs)))
		w.batches.Add(1)
		if len(reqs) > 1 {
			w.batchedOps.Add(int64(len(reqs)))
		}
	}
	switch r := reqs[0]; {
	case r.typ == reqRead:
		w.executeReads(reqs, led)
	case led:
		for _, r := range reqs {
			w.directWrites.Add(int64(len(r.ops)))
			w.cache.Fence(r.ops)
		}
		w.executeWrites(reqs)
	case r.typ == reqWrite:
		w.executeWrites(reqs)
	default:
		r.complete(r.run(w))
	}
	if !led {
		w.busyNs.Add(int64(time.Since(now)))
	}
}

// mirrorMoved synchronously double-writes applied ops whose keys have
// moved to another worker under the in-flight reshard (nil run in steady
// state: one pointer load). Per moved target: copy the op bytes (the
// submitter may reuse its buffers once acked), record every key in the
// run's SeenSet, then wait for the target to apply (worker.do, one target
// after another). The wait makes an acknowledged write durable on both
// owners, so cutover needs no drain phase. Self-owned keys (copy batches,
// incoming mirrors) are skipped, which ends the forwarding chain. A mirror
// failure fails the reshard, not the write its engine already committed.
func (w *worker) mirrorMoved(ops []kv.BatchOp) {
	run := w.resh.Load()
	if run == nil {
		return
	}
	var mirrors map[int][]kv.BatchOp
	for _, op := range ops {
		mr, ok := run.plan.FindKey(op.Key)
		if !ok || mr.To == w.id {
			continue
		}
		if mirrors == nil {
			mirrors = make(map[int][]kv.BatchOp)
		}
		op.Key = append([]byte(nil), op.Key...)
		if op.Kind == kv.OpPut {
			op.Value = append([]byte(nil), op.Value...)
		}
		mirrors[mr.To] = append(mirrors[mr.To], op)
	}
	for to, moved := range mirrors {
		for _, op := range moved {
			run.seen.Record(op.Key)
		}
		run.tracker.Update(func(st *reshard.Stats) { st.DoubleWrites += int64(len(moved)) })
		if err := run.targets[to].do(func(t *worker) error { return t.commit(moved, 0, 0, true) }); err != nil {
			run.tracker.Fail(fmt.Errorf("core: reshard mirror to worker %d: %w", to, err))
		}
	}
}

// executeWrites applies a run of write-type requests. With OBM and an
// engine that supports WriteBatch, the whole run commits as a single
// batch — one log IO instead of len(reqs) (Figure 10a). A merged run never
// carries a GSN: a transaction leg is not mergeable, so it arrives alone.
// Engines without batch-write (e.g. WiredTiger, §4.6) commit every request
// of the run on its own; OBM-write degenerates gracefully.
func (w *worker) executeWrites(reqs []*request) {
	if len(reqs) == 1 || w.bw == nil {
		for _, r := range reqs {
			r.complete(w.commit(r.ops, r.gsn, 0, false))
		}
		return
	}
	ops := w.opsScratch[:0]
	for _, r := range reqs {
		ops = append(ops, r.ops...)
	}
	err := w.commit(ops, 0, 0, false)
	clear(ops)
	w.opsScratch = ops
	for _, r := range reqs {
		r.complete(err)
	}
}

// commit applies one op list — a request's payload, a merged run's
// concatenation, or a control-plane closure's batch — to the engine, as one
// WriteBatch when the engine has them (the path a multi-op user WriteBatch
// takes too) and op by op otherwise. The same slice then feeds the
// replication backlog, the reshard mirror and the hot cache. txnGSN, when
// non-zero, names the cross-instance transaction these ops are a leg of and
// tags the engine's WAL record (kv.GSNWriter). streamGSN, when non-zero,
// marks a replicated record applied on a replica: ship keeps the primary's
// GSN for it, and the engine record stays untagged. unrouted says the ops
// did not come through the data plane's routing (a worker.do closure), so
// this worker may not own their keys.
func (w *worker) commit(ops []kv.BatchOp, txnGSN, streamGSN uint64, unrouted bool) error {
	if len(ops) == 0 {
		return nil // every op was a stale bulk-copy duplicate
	}
	var err error
	if w.bw != nil {
		if len(ops) > 1 {
			w.batchWriteOps.Add(int64(len(ops)))
		}
		// The batch header lives in the worker, not on a heap the engine
		// interface would force it to: engines do not keep it past Write.
		w.batch = kv.BatchOf(ops)
		if w.gw != nil && txnGSN != 0 {
			err = w.gw.WriteGSN(&w.batch, txnGSN)
		} else {
			err = w.bw.Write(&w.batch)
		}
		w.batch = kv.Batch{}
	} else {
		for _, op := range ops {
			if op.Kind == kv.OpDelete {
				err = w.engine.Delete(op.Key)
			} else {
				err = w.engine.Put(op.Key, op.Value)
			}
			if err != nil {
				break
			}
		}
	}
	if err == nil {
		if w.repl != nil {
			w.ship(streamGSN, ops)
		}
		w.mirrorMoved(ops)
	}
	if w.cache != nil {
		// Before completing: no submitter observes the acknowledgement
		// ahead of the cache. A resident entry takes the op's value only
		// when this worker can vouch for it — the write succeeded (a failed
		// one may have partially applied) and was routed here as the key's
		// owner (a purge deletes keys that live on under another owner);
		// otherwise it is dropped.
		drop := err != nil || unrouted
		for _, op := range ops {
			w.cache.Update(op, drop)
		}
	}
	return err
}

// ship records one applied write batch in the replication backlog. The
// GSN is assigned here, at apply time, from the store's global counter —
// the worker applies serially, so per-worker stream GSNs are strictly
// increasing, the monotonicity partial sync depends on (a caller-led run
// ships under exec too, so it keeps that order). A replicated
// record being applied on a replica (streamGSN != 0) keeps the GSN the
// primary's worker assigned, preserving the cursor sequence down the
// chain. The backlog ratchets lastGSN, so checkpoints taken on a
// replicating store record stream cursors as their watermarks.
func (w *worker) ship(streamGSN uint64, ops []kv.BatchOp) {
	g := streamGSN
	if g == 0 {
		g = w.gsnSrc.Add(1)
	}
	if g > w.lastGSN.Load() {
		w.lastGSN.Store(g)
	}
	w.repl.Append(w.id, g, ops)
}

// executeReads resolves a run of GETs as one leg (readLeg): one multiget
// when the engine has it (Figure 10b). Without one, the reads are issued
// concurrently, one leg each, to exploit the engine's internal read
// parallelism (§4.6's LevelDB/WiredTiger fallback); led counts DirectReads.
func (w *worker) executeReads(reqs []*request, led bool) {
	if w.mg != nil || len(reqs) == 1 {
		w.keyScratch, _ = w.readLeg(reqs, w.keyScratch, led)
	} else {
		var wg sync.WaitGroup
		for i := range reqs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				w.readLeg(reqs[i:i+1], nil, led)
			}()
		}
		wg.Wait()
	}
	for _, r := range reqs {
		r.complete(r.err)
	}
}

// readLeg is the one runner of a leg — reads of this worker's keys — on
// whichever goroutine runs it: the worker's for a queued run
// (executeReads), the caller's for a direct one (Store.submit,
// Store.placeLeg; direct set). Two keys or more take one engine
// multiget when the engine has one; otherwise each key is one get, in turn.
// Each request receives its result (val, found, err) and is not completed;
// err is the leg's first error. keys is scratch for the multiget's key
// list, returned for reuse: the caller's own, as no two goroutines may
// share it. readLeg counts what it ran, on either goroutine: keys read by a
// caller as DirectReads, keys resolved through the multiget as MultiGetOps.
func (w *worker) readLeg(reqs []*request, keys [][]byte, direct bool) ([][]byte, error) {
	if direct {
		w.directReads.Add(int64(len(reqs)))
	}
	if w.mg == nil || len(reqs) == 1 {
		var first error
		for _, r := range reqs {
			r.val, r.found, r.err = w.get(r.key)
			if first == nil {
				first = r.err
			}
		}
		return keys, first
	}
	keys = keys[:0]
	for _, r := range reqs {
		keys = append(keys, r.key)
	}
	w.multiGetOps.Add(int64(len(keys)))
	vals, err := w.mg.MultiGet(keys)
	clear(keys)
	for i, r := range reqs {
		if r.err = err; err == nil && vals[i] != nil {
			r.val, r.found = vals[i], true
		}
	}
	return keys, err
}

// get is the one engine point lookup. Above here an absent key is found ==
// false, not an error, and a present value is non-nil (MultiGet slots,
// hot-cache fills).
func (w *worker) get(key []byte) (val []byte, found bool, err error) {
	v, err := w.engine.Get(key)
	switch err {
	case nil:
		return kv.Present(v), true, nil
	case kv.ErrNotFound:
		return nil, false, nil
	}
	return nil, false, err
}

// park drains and joins the worker like stop but leaves its engine open:
// a shrink retires workers whose engines may still back merged iterators
// created before the cutover. The store closes retired engines at Close.
func (w *worker) park() {
	w.q.close()
	w.wg.Wait()
}

// stop drains and joins the worker, then closes its engine. A non-zero
// deadline bounds the drain: if the worker has not finished by then
// (typically wedged inside a stalled engine call), every still-queued
// request is failed with kv.ErrClosed, the engine is closed once the
// worker returns, and stop reports the wedge instead of hanging. readers
// closes once no direct call is left inside any engine
// (Store.fenceSubmitters): a caller wedged in this engine holds its close
// back as a wedged worker does. It is closed whenever deadline is zero.
func (w *worker) stop(deadline time.Time, readers <-chan struct{}) error {
	w.q.close()
	if deadline.IsZero() {
		w.wg.Wait()
		return w.engine.Close()
	}
	done := make(chan struct{})
	go func() {
		w.wg.Wait()
		if readers != nil {
			<-readers
		}
		close(done)
	}()
	timer := time.NewTimer(time.Until(deadline))
	defer timer.Stop()
	select {
	case <-done:
		return w.engine.Close()
	case <-timer.C:
	}
	dropped := w.q.drain()
	for _, r := range dropped {
		w.shed.Add(1)
		r.complete(fmt.Errorf("core: worker %d: store closing: %w", w.id, kv.ErrClosed))
	}
	go func() {
		<-done
		_ = w.engine.Close()
	}()
	return fmt.Errorf("core: worker %d: drain deadline exceeded with the worker or a direct call still inside its engine; %d queued requests failed: %w",
		w.id, len(dropped), kv.ErrClosed)
}

// WorkerStats summarizes one worker's activity. It is the one declaration
// of the per-worker stats schema: the tags name each field in the JSON,
// /metrics and (behind "store_") INFO, and say how the aggregate folds it
// (internal/stats). The embedded engine reports are zero-valued for
// engines without the matching capability.
type WorkerStats struct {
	ID int `json:"id" agg:"-"`
	// Ops and Batches count what the worker goroutine executed: requests
	// dequeued, and engine calls they were merged into. A key its caller
	// read directly (DirectReads), or an op of a run a caller led
	// (DirectWrites), is in neither.
	Ops        int64 `json:"ops" agg:"sum" info:"Store"`
	Batches    int64 `json:"batches" agg:"sum" info:"Store"`
	BatchedOps int64 `json:"batched_ops" agg:"sum" info:"Store"` // ops that traveled in a batch of >= 2
	// DirectReads counts keys read from this worker's engine on a caller's
	// goroutine: a Get's or a MultiGet leg's that found this worker idle and
	// never entered the queue, or a queued read run's a write leader ran.
	DirectReads int64 `json:"direct_reads" agg:"sum" info:"Store"`
	// DirectWrites counts ops, other submitters' too, of write runs led by
	// a synchronous write (a Put's, Delete's, one-partition WriteCtx's or
	// WriteEachCtx leg's, never a transaction's) that found this worker's
	// exec free and no reshard running and ran the queue up to itself.
	DirectWrites int64 `json:"direct_writes" agg:"sum" info:"Store"`
	// BatchWriteOps counts write ops committed to the engine inside a
	// multi-op WriteBatch (one journal IO for the whole batch); MultiGetOps
	// counts keys resolved through the engine's multiget, on the worker or
	// by a direct leg's caller. Both rise when OBM — or the network layer's
	// pipeline coalescing — succeeds in batching work before it reaches the
	// engine.
	BatchWriteOps int64 `json:"batch_write_ops" agg:"sum" info:"Store"`
	MultiGetOps   int64 `json:"multiget_ops" agg:"sum" info:"Store"`
	QueueWaitUs   int64 `json:"queue_wait_us" agg:"sum" info:"Store"`
	// BusyUs is the time the worker goroutine spent executing batches — the
	// paper's per-core CPU utilization (Table 2, Figure 21) is BusyUs over
	// the measured window.
	BusyUs int64 `json:"busy_us" agg:"sum" info:"Store"`
	// Rejected counts requests bounced by admission control with
	// kv.ErrOverloaded (AdmitReject on a full queue).
	Rejected int64 `json:"rejected" agg:"sum" info:"Store"`
	// Expired counts requests whose context ended before execution, as
	// observed by their submitters (kv.ErrDeadlineExceeded).
	Expired int64 `json:"expired" agg:"sum" info:"Store"`
	// Shed counts requests discarded by the worker at dequeue or drain —
	// dead work that never touched the engine.
	Shed int64 `json:"shed" agg:"sum" info:"Store"`
	// QueueHighWater is the deepest this worker's queue has ever been.
	QueueHighWater int `json:"queue_high_water" agg:"max" info:"Store"`

	kv.Health
	kv.CompactionStats
	kv.CheckpointStats

	// ReplLastGSN is this worker's replication stream watermark — the GSN
	// of its most recently applied-and-shipped write batch. Zero when
	// replication is disabled (Options.ReplLog nil).
	ReplLastGSN uint64 `json:"repl_last_gsn" agg:"max"`
}

func (w *worker) stats() WorkerStats {
	st := WorkerStats{
		ID:             w.id,
		Ops:            w.ops.Load(),
		Batches:        w.batches.Load(),
		BatchedOps:     w.batchedOps.Load(),
		DirectReads:    w.directReads.Load(),
		DirectWrites:   w.directWrites.Load(),
		BatchWriteOps:  w.batchWriteOps.Load(),
		MultiGetOps:    w.multiGetOps.Load(),
		QueueWaitUs:    w.queueWaitNs.Load() / 1e3,
		BusyUs:         w.busyNs.Load() / 1e3,
		Rejected:       w.rejected.Load(),
		Expired:        w.expired.Load(),
		Shed:           w.shed.Load(),
		QueueHighWater: w.q.highWaterMark(),
	}
	st.CheckpointStats = *w.ckpt.Load()
	if w.hr != nil {
		st.Health = w.hr.Health()
	}
	if w.cr != nil {
		st.CompactionStats = w.cr.CompactionStats()
	}
	if w.repl != nil {
		st.ReplLastGSN = w.lastGSN.Load()
	}
	return st
}
