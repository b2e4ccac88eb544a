package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"p2kvs/internal/keyspace"
	"p2kvs/internal/kv"
	"p2kvs/internal/reshard"
)

// Online elastic resharding: Store.Reshard grows or shrinks a live store
// from N to N±1 (or any N') workers with no downtime — the operation
// §4.2 of the paper defers to "a reconstruction of the entire set of KVS
// instances". The protocol:
//
//  1. Prepare. New workers (a grow) are spawned on blank engines and
//     started, but receive no routed traffic: the routing generation
//     still maps every key to its old owner. The moved key ranges are
//     computed once from the old and new consistent-hash rings
//     (keyspace.MovedRanges). A shrink first purges every survivor of
//     keys the old ring does not assign to it: leftovers of an earlier
//     failed or crashed attempt would otherwise outlive a later delete
//     on their real owner (the copy stream carries live pairs only).
//
//  2. Copy + double-write. A short barrier parks each source worker (an
//     old owner losing arcs) just long enough to activate the
//     double-write interceptor and pin an engine snapshot; from then on
//     every applied write whose key has moved is synchronously mirrored
//     by the source worker to the new owner and its key recorded in a
//     SeenSet. The coordinator then streams the snapshot-pinned image of
//     the moved ranges to the new owners, while writes keep flowing. A
//     bulk-copied pair whose key was mirrored is dropped at apply time on
//     the target — the mirror is fresher.
//     Because the mirror wait is synchronous, an acknowledged write is
//     durable on both owners, so cutover needs no drain phase and reads
//     after the flip observe every pre-flip acknowledged write.
//
//  3. Cutover. A bounded barrier re-parks the source workers; within the
//     pause budget (Options.CutoverBudget, default 10ms) the coordinator
//     takes the write side of txnGate with TryLock, so no cross-partition
//     transaction is between its begin record and its commit, commits
//     the new topology (the crash-recovery pivot), bumps the epoch and
//     atomically swaps the routing generation. If the budget
//     cannot be met the barrier is released, writers resume, and the
//     cutover retries — writers never pause longer than the budget per
//     attempt. After the flip the moved ranges are deleted from their
//     old owners (grow) or the retired workers are parked (shrink), and
//     the topology returns to the active state.
//
//  4. Abort. Any failure before the topology commit rolls back cleanly:
//     the interceptor is removed, spawned workers are stopped and their
//     instances wiped, pairs bulk-copied onto survivors are deleted, and
//     the store keeps serving at the old shape.
//
// Crash safety: the TOPOLOGY file in the transaction directory is the
// commit point. A crash before it commits recovers at the old shape
// (partially copied target instances are wiped at the next prepare or by
// Open). A crash after it commits recovers at the new shape, and Open
// finishes the interrupted cleanup before serving. The store is never
// reopened at a mix of the two.

// ErrReshardUnsupported reports a Reshard call on a store that was not
// opened in the elastic configuration.
var ErrReshardUnsupported = errors.New("core: resharding requires an elastic store (a keyspace.Consistent partitioner, a transaction directory, an InstanceReset hook, and no replication)")

// errBarrierTimeout is the internal signal that one cutover attempt could
// not park the source workers inside the pause budget.
var errBarrierTimeout = errors.New("core: reshard barrier timed out")

// DefaultCutoverBudget bounds the writer pause of one cutover attempt
// when Options.CutoverBudget is zero.
const DefaultCutoverBudget = 10 * time.Millisecond

const (
	// copyBatchSize is the number of pairs per bulk-copy (and cleanup
	// delete) request.
	copyBatchSize = 256
	// cutoverAttempts bounds cutover retries before the reshard aborts.
	cutoverAttempts = 400
	// cutoverRetrySleep spaces cutover attempts so writers make progress
	// between pauses.
	cutoverRetrySleep = 2 * time.Millisecond
	// parkTimeout bounds how long one cutover attempt waits for the
	// source workers to reach their barriers (a submitter's asynchronous
	// completion callback may itself be issuing store operations that
	// block on the routing lock the cutover holds — the bounded wait
	// breaks that cycle by releasing and retrying).
	parkTimeout = 250 * time.Millisecond
)

// reshardRun is the state an in-flight reshard shares with the workers:
// the moved-range plan, the double-write SeenSet, and the target worker
// for every new-shape worker id.
type reshardRun struct {
	plan    *keyspace.MovedSet
	seen    *reshard.SeenSet
	targets []*worker // indexed by new-shape worker id
	tracker *reshard.Tracker
}

// ReshardStats reports the resharding subsystem's counters (current or
// most recent run; zero-valued when no reshard has run).
func (s *Store) ReshardStats() reshard.Stats { return s.tracker.Snapshot() }

// Elastic reports whether this store satisfies Reshard's preconditions
// (consistent-hash partitioner, transaction log, instance-reset hook, no
// replication) — i.e. whether Reshard can ever succeed on it.
func (s *Store) Elastic() bool {
	return s.route.Load().ownership() != nil && s.txn != nil && s.opts.ReplLog == nil && s.opts.InstanceReset != nil
}

// Reshard changes the worker count of a live elastic store to newN with
// no downtime. It returns once the new shape is committed and cleaned
// up; concurrent reads and writes are served throughout, with writer
// pauses bounded by Options.CutoverBudget per cutover attempt. Reshard
// calls serialize; a failed run aborts back to the old shape.
func (s *Store) Reshard(ctx context.Context, newN int) error {
	if !s.Elastic() {
		return ErrReshardUnsupported
	}
	if newN < 1 {
		return fmt.Errorf("core: Reshard to %d workers: at least one required", newN)
	}
	if s.closed.Load() {
		return kv.ErrClosed
	}
	s.reshMu.Lock()
	defer s.reshMu.Unlock()

	oldRT := s.route.Load()
	oldN := len(oldRT.workers)
	if newN == oldN {
		return nil
	}
	oldC := oldRT.part.(keyspace.Consistent) // what Elastic checked
	s.tracker.Begin(oldN, newN, s.epoch.Load())

	// --- Prepare: plan the move, spawn new workers on blank engines. ---
	newC := keyspace.NewConsistent(newN, oldC.Replicas())
	moved := keyspace.MovedRanges(oldC, newC)
	plan := keyspace.NewMovedSet(moved)

	var added []*worker
	for id := oldN; id < newN; id++ { // a grow
		// Wipe first: a crashed earlier attempt may have left a partial
		// copy in this instance directory. A worker an earlier shrink
		// retired may still hold the directory's engine open; it goes
		// before the wipe, or two engines would write one directory and
		// the writes acked to the new one would not survive a crash.
		s.closeRetired(id)
		if err := s.opts.InstanceReset(id); err != nil {
			return s.abortReshard(nil, added, oldRT, newN, fmt.Errorf("core: resetting instance %d: %w", id, err))
		}
		engine, err := s.opts.EngineFactory(id, nil)
		if err != nil {
			return s.abortReshard(nil, added, oldRT, newN, fmt.Errorf("core: opening instance %d: %w", id, err))
		}
		w := s.newWorker(id, engine)
		w.start()
		added = append(added, w)
	}
	newWorkers := append(append([]*worker{}, oldRT.workers[:min(oldN, newN)]...), added...)
	if newN < oldN {
		// The shrink-side equivalent of the grow's InstanceReset: a
		// survivor must enter the run holding nothing foreign.
		if err := purgeForeign(newWorkers, oldC); err != nil {
			return s.abortReshard(nil, added, oldRT, newN, fmt.Errorf("core: purging stale leftovers before shrink: %w", err))
		}
	}

	// sources are the old owners losing arcs — the workers that must
	// double-write and be barriered. Grow moves arcs only old→added;
	// shrink only retired→survivor.
	fromIDs := map[int]bool{}
	for _, mr := range moved {
		fromIDs[mr.From] = true
	}
	sources := make([]*worker, 0, len(fromIDs))
	for id := range fromIDs {
		sources = append(sources, oldRT.workers[id])
	}
	sort.Slice(sources, func(i, j int) bool { return sources[i].id < sources[j].id })

	run := &reshardRun{plan: plan, seen: reshard.NewSeenSet(), targets: newWorkers, tracker: &s.tracker}

	// --- Snapshot barrier: activate double-writes, pin the copy image. ---
	// The barrier closes the torn window where a worker loaded a nil run
	// just before activation and commits its batch unmirrored after the
	// snapshot: a batch that saw no run was dequeued before the barrier
	// landed, so it is applied before the worker parks — inside the
	// pinned iterators; everything applied after the park is mirrored.
	// No routing lock is needed (or wanted: the park wait is unbounded,
	// and a submitter's completion callback may itself submit). The run
	// is published before any iterator is pinned, so nothing a mirror
	// records can be older than the copy image: membership in the SeenSet
	// alone marks a copied pair stale.
	s.resh.Store(run)
	release, err := barrierWorkers(sources, nil)
	if err != nil {
		return s.abortReshard(run, added, oldRT, newN, fmt.Errorf("core: reshard snapshot barrier: %w", err))
	}
	its := make([]kv.Iterator, len(sources))
	for i, w := range sources {
		it, ierr := w.engine.NewIterator()
		if ierr != nil {
			err = fmt.Errorf("core: pinning snapshot of worker %d: %w", w.id, ierr)
			break
		}
		its[i] = it
	}
	close(release)
	closeIters := func() {
		for _, it := range its {
			if it != nil {
				it.Close()
			}
		}
	}
	if err != nil {
		closeIters()
		return s.abortReshard(run, added, oldRT, newN, err)
	}

	// --- Copy: stream the pinned image of the moved ranges. ---
	s.tracker.SetState(reshard.StateCopy)
	err = s.copyMoved(ctx, run, sources, its)
	closeIters()
	s.tracker.Update(func(st *reshard.Stats) { st.SkippedStale += run.seen.Drops() })
	if err == nil && run.tracker.Failed() {
		err = errors.New("core: reshard failed during copy (see reshard_last_err)")
	}
	if err != nil {
		return s.abortReshard(run, added, oldRT, newN, err)
	}

	// --- Cutover: commit the topology and flip the ring, bounded pause. ---
	s.tracker.SetState(reshard.StateCutover)
	newEpoch := s.epoch.Load() + 1
	err = s.cutover(ctx, run, sources, newWorkers, newC, oldN, newN, newEpoch)
	if err != nil {
		return s.abortReshard(run, added, oldRT, newN, err)
	}

	// --- Cleanup: drop the moved ranges from their old owners. ---
	// The new shape is committed; a cleanup failure leaves TOPOLOGY in
	// the cleanup state, and the next Open finishes the job before
	// serving.
	s.tracker.SetState(reshard.StateCleanup)
	if newN > oldN {
		if cerr := purgeForeign(sources, newC); cerr != nil && !s.closed.Load() {
			s.tracker.Fail(fmt.Errorf("core: reshard cleanup on %w", cerr))
			return fmt.Errorf("core: reshard committed but cleanup failed (reopen to finish): %w", cerr)
		}
	} else {
		// Retired workers stop serving but keep their engines open:
		// merged iterators created before the cutover may still be
		// reading them. The engines close at Close, or when a later grow
		// reuses their id (closeRetired) — an iterator that old ends with
		// the engine's closed error there; the stale instance directories
		// are wiped by that grow's prepare or by Open's cleanup recovery.
		retired := oldRT.workers[newN:]
		for _, w := range retired {
			w.park()
		}
		s.retiredMu.Lock()
		s.retired = append(s.retired, retired...)
		s.retiredMu.Unlock()
	}
	topo := reshard.Topology{Workers: newN, PrevWorkers: oldN, Epoch: newEpoch, State: reshard.TopologyActive}
	if err := reshard.SaveTopology(s.opts.TxnFS, s.opts.TxnDir, topo); err != nil && !s.closed.Load() {
		s.tracker.Fail(err)
		return fmt.Errorf("core: reshard committed but topology finalize failed (reopen to finish): %w", err)
	}
	s.tracker.Complete(newEpoch)
	return nil
}

// closeRetired closes the engine of the worker a shrink retired under id,
// if one is still parked, and forgets it. A checkpoint that captured the
// worker before the shrink may still be writing its image: that is waited
// for (no later one can hold the worker; Reshard's caller holds reshMu).
func (s *Store) closeRetired(id int) {
	s.retiredMu.Lock()
	defer s.retiredMu.Unlock()
	for i, w := range s.retired {
		if w.id == id {
			s.ckptMu.Lock()
			_ = w.engine.Close() // the directory is about to be wiped
			s.ckptMu.Unlock()
			s.retired = append(s.retired[:i], s.retired[i+1:]...)
			return
		}
	}
}

// cutover runs the bounded-pause retry loop: park the sources, wait out
// in-flight transactions (txnGate), commit TOPOLOGY, swap the ring and the
// routing generation. One attempt never pauses writers longer than the
// budget (plus the topology fsync); an attempt that cannot make it
// releases the barrier and retries.
func (s *Store) cutover(ctx context.Context, run *reshardRun, sources, newWorkers []*worker, newC keyspace.Consistent, oldN, newN int, newEpoch uint64) error {
	budget := s.opts.CutoverBudget
	if budget <= 0 {
		budget = DefaultCutoverBudget
	}
	for attempt := 0; ; attempt++ {
		if s.closed.Load() {
			return kv.ErrClosed
		}
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("core: reshard cutover: %w", err)
			}
		}
		if run.tracker.Failed() {
			return errors.New("core: reshard failed before cutover (see reshard_last_err)")
		}
		if attempt >= cutoverAttempts {
			return fmt.Errorf("core: reshard cutover could not meet the %v pause budget in %d attempts", budget, cutoverAttempts)
		}
		committed, barrierNs, err := s.tryCutover(run, sources, newWorkers, newC, oldN, newN, newEpoch, budget)
		if err != nil {
			return err
		}
		if committed {
			s.tracker.Update(func(st *reshard.Stats) { st.BarrierNs = barrierNs })
			return nil
		}
		s.tracker.Update(func(st *reshard.Stats) { st.CutoverRetries++ })
		time.Sleep(cutoverRetrySleep)
	}
}

// tryCutover is one cutover attempt. committed == false with a nil error
// means "budget missed, retry"; a non-nil error aborts the reshard.
func (s *Store) tryCutover(run *reshardRun, sources, newWorkers []*worker, newC keyspace.Consistent, oldN, newN int, newEpoch uint64, budget time.Duration) (committed bool, barrierNs int64, err error) {
	timeout := make(chan struct{})
	timer := time.AfterFunc(parkTimeout, func() { close(timeout) })
	defer timer.Stop()

	s.routeMu.Lock()
	start := time.Now()
	release, err := barrierWorkers(sources, timeout)
	if err != nil {
		s.routeMu.Unlock()
		if errors.Is(err, errBarrierTimeout) {
			return false, 0, nil
		}
		return false, 0, fmt.Errorf("core: reshard cutover barrier: %w", err)
	}
	abandon := func() {
		close(release)
		s.routeMu.Unlock()
	}
	// Sources are parked and no new request can be admitted: every
	// acknowledged write to a moved key is on both owners (the mirror
	// wait is synchronous), so only a cross-partition transaction between
	// its applied legs and its commit record can still straddle the flip.
	// Wait those out inside the budget.
	deadline := start.Add(budget)
	for !s.txnGate.TryLock() {
		if time.Now().After(deadline) {
			abandon()
			return false, 0, nil
		}
		time.Sleep(20 * time.Microsecond)
	}
	defer s.txnGate.Unlock()
	if time.Since(start) > budget {
		abandon()
		return false, 0, nil
	}
	if run.tracker.Failed() {
		abandon()
		return false, 0, errors.New("core: reshard failed at cutover (see reshard_last_err)")
	}
	// Commit point. Inside the pause by design: committing the new ring
	// while writers still run would open a crash window where the
	// topology names the new shape but a late unmirrored write lands on
	// an old owner.
	topo := reshard.Topology{Workers: newN, PrevWorkers: oldN, Epoch: newEpoch, State: reshard.TopologyCleanup}
	if err := reshard.SaveTopology(s.opts.TxnFS, s.opts.TxnDir, topo); err != nil {
		abandon()
		return false, 0, fmt.Errorf("core: committing reshard topology: %w", err)
	}
	s.epoch.Store(newEpoch)
	s.route.Store(&routing{part: newC, workers: newWorkers})
	s.resh.Store(nil)
	close(release)
	barrierNs = time.Since(start).Nanoseconds()
	s.routeMu.Unlock()
	return true, barrierNs, nil
}

// barrierWorkers pushes a barrier to every listed worker — past admission
// control: a barrier must land even on a saturated queue, and it waits
// behind the queued work it fences — and waits for all of them to park.
// A barrier is a closure: reached, it finishes its leg of parked (every
// operation enqueued before it has been applied), then parks the worker
// until release closes. It is the one barrier, shared by checkpoints (every
// worker, no timeout) and reshard (the source workers). timeout, when
// non-nil, bounds both the queue-space wait and the park wait; a miss
// returns errBarrierTimeout with every already-pushed barrier released. On
// success the workers are parked and the caller owns the returned release
// channel.
func barrierWorkers(workers []*worker, timeout <-chan struct{}) (chan struct{}, error) {
	// Not a named result: a failed return would nil it under the barriers
	// already pushed, parking their workers on a nil channel forever.
	release := make(chan struct{})
	parked := newFanIn()
	park := func(*worker) error {
		parked.finish(nil)
		<-release
		return nil
	}
	for _, w := range workers {
		parked.add()
		// Nobody waits on done; the worker's completion just lands there.
		r := &request{typ: reqRun, run: park, done: newDone()}
		if perr := w.q.pushWait(timeout, r); perr != nil {
			close(release)
			if errors.Is(perr, kv.ErrDeadlineExceeded) {
				return nil, errBarrierTimeout
			}
			return nil, fmt.Errorf("worker %d: %w", w.id, perr)
		}
	}
	parked.finish(nil) // the coordinator's own count
	select {
	case <-parked.done:
		return release, nil
	case <-timeout:
		close(release)
		return nil, errBarrierTimeout
	}
}

// copyMoved streams every moved pair from the pinned source iterators to
// its new owner, in batches through the target queues. A batch is a closure
// that drops, at apply time, the pairs the run has double-written: the
// mirrored value is at least as fresh as the snapshot-pinned one, and it is
// already applied or strictly ahead in this FIFO queue, since a mirror
// records its key before enqueueing. Checked at apply, not enqueue, so every
// interleaving of copy batch and racing mirror resolves in the mirror's
// favour (the SeenSet counts the drops).
func (s *Store) copyMoved(ctx context.Context, run *reshardRun, sources []*worker, its []kv.Iterator) error {
	ctx = liveCtx(ctx)
	for si, src := range sources {
		pending := make(map[int][]kv.BatchOp)
		flush := func(to int) error {
			ops := pending[to]
			if len(ops) == 0 {
				return nil
			}
			delete(pending, to)
			if s.closed.Load() {
				return kv.ErrClosed
			}
			if ctx != nil {
				if err := ctx.Err(); err != nil {
					return fmt.Errorf("core: reshard copy: %w", err)
				}
			}
			if run.tracker.Failed() {
				return errors.New("core: reshard failed during copy (see reshard_last_err)")
			}
			var bytes int64
			for _, op := range ops {
				bytes += int64(len(op.Key) + len(op.Value))
			}
			err := run.targets[to].do(func(t *worker) error {
				fresh := ops[:0]
				for _, op := range ops {
					if !run.seen.Seen(op.Key) {
						fresh = append(fresh, op)
					}
				}
				return t.commit(fresh, 0, 0, true)
			})
			if err != nil {
				return fmt.Errorf("core: reshard copy to worker %d: %w", to, err)
			}
			s.tracker.Update(func(st *reshard.Stats) {
				st.MovedKeys += int64(len(ops))
				st.MovedBytes += bytes
			})
			return nil
		}
		it := its[si]
		for it.SeekToFirst(); it.Valid(); it.Next() {
			mr, ok := run.plan.Find(keyspace.KeyPoint(it.Key()))
			// Only arcs this worker owned under the old ring travel: a
			// stale foreign leftover (from an earlier failed run) must
			// not shadow the authoritative copy its real owner streams.
			if !ok || mr.From != src.id {
				continue
			}
			pending[mr.To] = append(pending[mr.To], kv.BatchOp{
				Kind:  kv.OpPut,
				Key:   append([]byte(nil), it.Key()...),
				Value: append([]byte(nil), it.Value()...),
			})
			if len(pending[mr.To]) >= copyBatchSize {
				if err := flush(mr.To); err != nil {
					return err
				}
			}
		}
		if err := it.Error(); err != nil {
			return fmt.Errorf("core: reshard copy scan of worker %d: %w", src.id, err)
		}
		for to := range pending {
			if err := flush(to); err != nil {
				return err
			}
		}
	}
	return nil
}

// abortReshard rolls a failed pre-commit run back to the old shape:
// deactivate double-writes, stop and wipe spawned workers, and (shrink)
// delete pairs bulk-copied onto survivors. The old routing generation
// was never replaced, so serving continues uninterrupted.
func (s *Store) abortReshard(run *reshardRun, added []*worker, oldRT *routing, newN int, cause error) error {
	if run != nil {
		s.resh.Store(nil)
	}
	for _, w := range added {
		_ = w.stop(time.Time{}, nil)
	}
	if s.opts.InstanceReset != nil {
		for _, w := range added {
			_ = s.opts.InstanceReset(w.id)
		}
	}
	if run != nil && newN < len(oldRT.workers) && !s.closed.Load() {
		// Shrink: survivors received copies and mirrors of moved pairs;
		// under the still-active old ring those are foreign. Best-effort
		// removal — leftovers are invisible (scans and iterators filter
		// by ownership) and the next shrink's prepare purges them before
		// it copies anything.
		_ = purgeForeign(oldRT.workers[:newN], oldRT.part)
	}
	s.tracker.Abort(cause)
	return cause
}

// purgeForeign deletes every key part does not assign to the worker whose
// engine holds it, in copyBatchSize batches through that worker's queue —
// ordered with concurrent writes — each sent as soon as it fills, while the
// walk goes on over the engine's snapshot iterator. The keys may be alive on
// their owner, so the hot cache must drop them, not record the deletes: an
// unrouted commit sees to it.
func purgeForeign(workers []*worker, part keyspace.Partitioner) error {
	for _, w := range workers {
		if err := purgeWorker(w, part); err != nil {
			return fmt.Errorf("worker %d: %w", w.id, err)
		}
	}
	return nil
}

func purgeWorker(w *worker, part keyspace.Partitioner) error {
	it, err := w.engine.NewIterator()
	if err != nil {
		return err
	}
	defer it.Close()
	var ops []kv.BatchOp
	send := func() error {
		batch := ops
		ops = nil
		return w.do(func(w *worker) error { return w.commit(batch, 0, 0, true) })
	}
	for it.SeekToFirst(); it.Valid(); it.Next() {
		if part.Pick(it.Key()) == w.id {
			continue
		}
		ops = append(ops, kv.BatchOp{Kind: kv.OpDelete, Key: append([]byte(nil), it.Key()...)})
		if len(ops) == copyBatchSize {
			if err := send(); err != nil {
				return err
			}
		}
	}
	if err := it.Error(); err != nil || len(ops) == 0 {
		return err
	}
	return send()
}
