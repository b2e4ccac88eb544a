package lsm

import (
	"errors"
	"fmt"
	"strings"
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

// noteBgFailure records a failed background attempt (attempt is 0-based)
// and reports whether the job should retry. It returns false when the
// engine is closing, already degraded, or this failure exhausted the
// retry budget (degrading the engine).
func (d *DB) noteBgFailure(job string, err error, attempt int) bool {
	if d.closed.Load() {
		return false
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.g.Err() != nil {
		return false
	}
	if job == "flush" {
		d.flushFailing = true
	} else {
		d.compactFailing = true
	}
	// ENOSPC degrades immediately rather than burning the retry budget:
	// re-running the job cannot free space, while degrading at once lets
	// the guard start reclaiming and keeps reads served in the
	// meantime.
	if isPermanentBgErr(err) || vfs.IsNoSpace(err) || attempt+1 >= d.opts.BgMaxRetries {
		d.degradeLocked(job, err)
		return false
	}
	d.g.Retrying(err)
	return true
}

// clearBgFailure marks a previously failing job healthy again.
func (d *DB) clearBgFailure(job string) {
	d.mu.Lock()
	if job == "flush" {
		d.flushFailing = false
	} else {
		d.compactFailing = false
	}
	if !d.flushFailing && !d.compactFailing {
		d.g.Retrying(nil)
	}
	d.mu.Unlock()
}

// backoffWait sleeps the capped-exponential delay for the given retry
// (1-based), returning false if the engine shut down while waiting.
func (d *DB) backoffWait(retry int) bool {
	delay := d.opts.BgBaseBackoff
	for i := 1; i < retry && delay < d.opts.BgMaxBackoff; i++ {
		delay *= 2
	}
	if delay > d.opts.BgMaxBackoff {
		delay = d.opts.BgMaxBackoff
	}
	t := time.NewTimer(delay)
	defer t.Stop()
	select {
	case <-d.stopC:
		return false
	case <-t.C:
		return true
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
// LogAndApply rewrites it before appending); once that rewrite succeeds, the orphan
// SSTs the edit would have installed are deleted — they are unreferenced
// by the fresh snapshot, so this is crash-safe. A successful edit installs a
// new current version, which is published to readers before applyEdit
// returns; callers must not hold d.mu.
func (d *DB) applyEdit(edit *manifest.VersionEdit, orphans ...uint64) error {
	err := d.vs.LogAndApply(edit)
	if err == nil {
		d.mu.Lock()
		d.publishReadStateLocked()
		d.mu.Unlock()
		return nil
	}
	if rerr := d.vs.Rotate(); rerr == nil {
		for _, num := range orphans {
			d.opts.FS.Remove(sstName(d.dir, num))
		}
	}
	return err
}

// Health implements kv.HealthReporter: the guard's report plus this
// engine's retry counters. Healthy, it reads only atomics.
func (d *DB) Health() kv.Health {
	h := d.g.Health()
	h.FlushRetries = d.perf.flushRetries.Load()
	h.CompactRetries = d.perf.compactRetries.Load()
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
	d.flushFailing = false
	d.compactFailing = false
	if d.wal != nil && d.wal.Tainted() {
		d.rotateLocked()
	}
	d.kick()
	d.cond.Broadcast()
	d.mu.Unlock()
	return nil
}

// reclaimSpace is what the guard runs before each space probe (a full disk
// is exactly when garbage matters most): it deletes files in the instance
// directory that nothing references — SSTs absent from the current version
// and logs older than the manifest's LogNum (already flushed). It only runs
// while the engine is degraded and no flush or compaction that started before
// it degraded is still running — none can start then, so a name absent from
// the snapshot taken under d.mu cannot become live again (file numbers are
// never reused) — and defers to checkpoint pins, which may still reference
// retired files.
func (d *DB) reclaimSpace() {
	d.mu.Lock()
	if d.g.Err() == nil || d.closed.Load() || d.Held() || len(d.compRunning) > 0 || d.flushing > 0 {
		d.mu.Unlock()
		return
	}
	live := make(map[string]bool)
	for _, level := range d.vs.Current().Levels {
		for _, fm := range level {
			live[sstName(d.dir, fm.Num)] = true
		}
	}
	if d.memH != nil && d.memH.walw != nil {
		live[walName(d.dir, d.memH.logNum)] = true
	}
	for _, h := range d.imm {
		if h.walw != nil {
			live[walName(d.dir, h.logNum)] = true
		}
	}
	minLog := d.vs.LogNum
	names, err := d.opts.FS.List(d.dir)
	if err != nil {
		d.mu.Unlock()
		return
	}
	var victims []string
	for _, name := range names {
		full := d.dir + "/" + name
		if live[full] {
			continue
		}
		switch {
		case strings.HasSuffix(name, ".sst"):
			victims = append(victims, full)
		case strings.HasSuffix(name, ".log"):
			var num uint64
			if _, err := fmt.Sscanf(name, "%06d.log", &num); err == nil && num < minLog {
				victims = append(victims, full)
			}
		}
	}
	d.mu.Unlock()
	for _, v := range victims {
		d.opts.FS.Remove(v)
	}
}
