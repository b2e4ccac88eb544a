package lsm

import (
	"errors"
	"sync/atomic"
	"time"

	"p2kvs/internal/kv"
	"p2kvs/internal/manifest"
	"p2kvs/internal/vfs"
	"p2kvs/internal/wal"
)

// Background-error handling.
//
// A flush or compaction that fails no longer wedges the engine. Errors are
// classified transient vs. permanent: transient failures (the common SSD
// case — EIO on fsync, a torn write) are retried in place with capped
// exponential backoff, keeping the memtable and WAL alive so no
// acknowledged write is lost. Only when retries are exhausted (or the
// error is permanent, or the disk is full) does the engine degrade to
// read-only. The retry budget is this engine's; the degraded state, the
// disk-full poll and Health are the engine guard's (internal/guard, whose
// package comment has the state diagram). Resume rotates away from a
// tainted WAL so writes can land and re-kicks the background work.

// isPermanentBgErr reports whether a background error cannot be cured by
// retrying. Everything else — including injected faults — is assumed
// transient.
func isPermanentBgErr(err error) bool {
	return errors.Is(err, kv.ErrClosed) || errors.Is(err, wal.ErrClosed)
}

// degradeLocked makes the engine read-only (first failure wins) and wakes
// every stalled writer and Flush waiter so they observe it. Caller holds
// d.mu: the stall, flush and compaction loops test the guard inside it, so
// none can miss the broadcast.
func (d *DB) degradeLocked(job string, cause error) {
	d.g.Degrade(job, cause)
	d.cond.Broadcast()
}

// bgJob is the retry state of one kind of background work, flush or
// compaction.
type bgJob struct {
	name    string       // what the guard's degraded state names
	failing bool         // an attempt failed and none has succeeded since; under d.mu
	retries atomic.Int64 // attempts beyond the first, reported by Health
}

// retryBg runs attempt until it succeeds, retrying failures after a delay
// that doubles from BgBaseBackoff up to BgMaxBackoff. It returns false,
// leaving the work undone, when the engine is closing, is already degraded,
// or degrades on this failure: on a permanent error, a full disk (re-running
// cannot free space, while degrading at once lets the guard reclaim and keeps
// reads served) or an exhausted retry budget.
func (d *DB) retryBg(job *bgJob, attempt func() error) bool {
	delay := min(d.opts.BgBaseBackoff, d.opts.BgMaxBackoff)
	for n := 1; ; n++ {
		select {
		case <-d.stopC:
			return false
		default:
		}
		err := attempt()
		d.mu.Lock()
		if err == nil {
			if n > 1 {
				job.failing = false
				if !d.flushJob.failing && !d.compactJob.failing {
					d.g.Retrying(nil)
				}
			}
			d.mu.Unlock()
			return true
		}
		if d.closed.Load() || d.g.Err() != nil {
			d.mu.Unlock()
			return false
		}
		job.failing = true
		if isPermanentBgErr(err) || vfs.IsNoSpace(err) || n >= d.opts.BgMaxRetries {
			d.degradeLocked(job.name, err)
			d.mu.Unlock()
			return false
		}
		d.g.Retrying(err)
		d.mu.Unlock()
		job.retries.Add(1)
		t := time.NewTimer(delay)
		select {
		case <-d.stopC:
			t.Stop()
			return false
		case <-t.C:
		}
		delay = min(2*delay, d.opts.BgMaxBackoff)
	}
}

// noteWriteFailure reacts to a failed foreground WAL append. The failed
// write may have left a torn record, tainting the log: no later append
// may land in it (it would be unreadable at replay), so rotate to a fresh
// memtable+WAL pair. Only the first failed writer rotates — later ones
// find the handle already retired.
func (d *DB) noteWriteFailure(h *memHandle, err error) {
	if errors.Is(err, wal.ErrClosed) || d.closed.Load() {
		return
	}
	d.mu.Lock()
	if vfs.IsNoSpace(err) {
		// The disk is full: rotating would create another file on the
		// same full disk (and push more memtables at a flush path that
		// cannot write either). Degrade instead; Resume rotates away from
		// the tainted log once space is back.
		d.degradeLocked("wal append", err)
		d.mu.Unlock()
		return
	}
	if d.memH == h && h.walw != nil && h.walw.Tainted() {
		d.rotateLocked()
	}
	d.mu.Unlock()
}

// applyEdit durably records a version edit. On failure the MANIFEST log
// may hold a torn tail (stranding later edits) or a record of unknown
// durability (which a blind retry would double-apply at replay), so it is
// rewritten from a clean snapshot (should that fail too, the next
// LogAndApply rewrites it before appending); once that rewrite succeeds, the
// tables the edit would have added are deleted — they are unreferenced by
// the fresh snapshot, so this is crash-safe. A successful edit installs a
// new current version, which is published to readers before applyEdit
// returns; callers must not hold d.mu.
func (d *DB) applyEdit(edit *manifest.VersionEdit) error {
	err := d.vs.LogAndApply(edit)
	if err == nil {
		d.mu.Lock()
		d.publishReadStateLocked()
		d.mu.Unlock()
		return nil
	}
	if rerr := d.vs.Rotate(); rerr == nil {
		for _, a := range edit.Added {
			d.opts.FS.Remove(sstName(d.dir, a.Meta.Num))
		}
	}
	return err
}

// Health implements kv.HealthReporter: the guard's report plus this
// engine's retry counters. Healthy, it reads only atomics.
func (d *DB) Health() kv.Health {
	h := d.g.Health()
	h.FlushRetries = d.flushJob.retries.Load()
	h.CompactRetries = d.compactJob.retries.Load()
	return h
}

// Resume implements kv.HealthReporter: it clears the degraded state and
// re-attempts the failed background work. If the current WAL was tainted
// by the incident, the memtable is rotated so new writes get a fresh log.
func (d *DB) Resume() error {
	if d.closed.Load() {
		return kv.ErrClosed
	}
	d.mu.Lock()
	d.g.Clear()
	d.flushJob.failing = false
	d.compactJob.failing = false
	if d.wal != nil && d.wal.Tainted() {
		d.rotateLocked()
	}
	d.kick()
	d.cond.Broadcast()
	d.mu.Unlock()
	return nil
}

// reclaimSpace is what the guard runs before each space probe (a full disk
// is exactly when garbage matters most): it deletes what garbage lists. It
// only runs while the engine is degraded and no flush or compaction that
// started before it degraded is still running — none can start then, so a
// name absent from the version read under d.mu cannot become live again
// (file numbers are never reused) — and defers to checkpoint pins, which may
// still reference retired files.
func (d *DB) reclaimSpace() {
	d.mu.Lock()
	if d.g.Err() == nil || d.closed.Load() || d.Held() || len(d.compRunning) > 0 || d.flushing > 0 {
		d.mu.Unlock()
		return
	}
	victims, err := d.garbage()
	d.mu.Unlock()
	if err != nil {
		return
	}
	for _, v := range victims {
		d.opts.FS.Remove(v)
	}
}

// garbage lists the files in the instance directory that nothing
// references: tables absent from the current version and logs older than
// the manifest's LogNum (already flushed; every live memtable's log is
// newer). The caller makes sure no flush or compaction is writing.
func (d *DB) garbage() ([]string, error) {
	live := make(map[uint64]bool)
	for _, level := range d.vs.Current().Levels {
		for _, fm := range level {
			live[fm.Num] = true
		}
	}
	names, err := d.opts.FS.List(d.dir)
	if err != nil {
		return nil, err
	}
	var victims []string
	for _, name := range names {
		if num, ok := fileNum(name, ".sst"); ok && !live[num] {
			victims = append(victims, d.dir+"/"+name)
		} else if num, ok := fileNum(name, ".log"); ok && num < d.vs.LogNum {
			victims = append(victims, d.dir+"/"+name)
		}
	}
	return victims, nil
}
