package btreekv

import (
	"fmt"
	"strings"

	"p2kvs/internal/kv"
	"p2kvs/internal/vfs"
)

// Disk-full handling.
//
// The engine has no retryable background jobs (checkpoints run inline
// under the store latch), so its failure taxonomy is simpler than the
// LSM's: a journal append or checkpoint that hits ENOSPC degrades the
// store to read-only immediately — retrying cannot free space — while
// reads keep serving the merged dirty+base view. The space watchdog then
// garbage-collects leftovers from interrupted checkpoints, probes for
// freed space, and auto-Resumes.

// degradedError blocks writes while the store is degraded. It matches
// kv.ErrDegraded via errors.Is and unwraps to the causing failure.
type degradedError struct {
	cause error
}

func (e *degradedError) Error() string {
	return fmt.Sprintf("btreekv: engine degraded to read-only: %v", e.cause)
}

func (e *degradedError) Unwrap() error { return e.cause }

func (e *degradedError) Is(target error) bool { return target == kv.ErrDegraded }

// degradeLocked installs the write-blocking error (first failure wins)
// and, for space exhaustion, kicks the auto-resume watchdog. Caller
// holds the write latch.
func (d *DB) degradeLocked(cause error) {
	if d.bgErr != nil {
		return
	}
	d.bgErr = &degradedError{cause: cause}
	if vfs.IsNoSpace(cause) {
		d.diskFull = true
		d.diskFullEvents.Add(1)
		if d.spaceWatch != nil {
			d.spaceWatch.Kick()
		}
	}
}

// Health implements kv.HealthReporter.
func (d *DB) Health() kv.Health {
	h := kv.Health{
		State:            kv.StateHealthy,
		DiskFullEvents:   d.diskFullEvents.Load(),
		AutoResumes:      d.autoResumes.Load(),
		CorruptionEvents: d.corruptionEvents.Load(),
		RepairedFiles:    d.repairedFiles.Load(),
		InjectedFaults:   vfs.InjectedFaults(d.opts.FS),
	}
	if cerr, _ := d.corruption(); cerr != nil {
		// Containment active: the one base/journal under quarantine.
		h.QuarantinedFiles = 1
		h.LastCorruption = kv.CauseOf(cerr)
		h.State = kv.StateReadOnly
		h.Err = kv.CauseOf(cerr)
	}
	d.mu.RLock()
	if d.bgErr != nil {
		h.State = kv.StateReadOnly
		h.Err = kv.CauseOf(d.bgErr)
		h.DiskFull = d.diskFull
	}
	d.mu.RUnlock()
	return h
}

// Resume implements kv.Resumer: it clears the degraded state and, if the
// incident tainted the journal, re-platforms on a fresh checkpoint +
// journal so new writes land in a readable log. A re-platform failure
// re-degrades (space may not actually be back).
func (d *DB) Resume() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return kv.ErrClosed
	}
	d.bgErr = nil
	d.diskFull = false
	if d.wal.Tainted() {
		if err := d.checkpointLocked(); err != nil {
			d.degradeLocked(err)
			return err
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Auto-resume watchdog hooks
// ---------------------------------------------------------------------------

// diskFullDegraded is the watchdog's "still stuck?" predicate.
func (d *DB) diskFullDegraded() bool {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.diskFull && d.bgErr != nil && !d.closed
}

// spaceProbe garbage-collects leftovers from interrupted checkpoints,
// then checks whether a small durable write succeeds.
func (d *DB) spaceProbe() bool {
	d.reclaimSpace()
	return vfs.ProbeSpace(d.opts.FS, d.dir)
}

// autoResume is invoked by the watchdog once the probe succeeds while
// the store is still disk-full degraded.
func (d *DB) autoResume() {
	d.autoResumes.Add(1)
	_ = d.Resume()
}

// reclaimSpace deletes files nothing references: *.new and *.tmp
// temporaries from interrupted checkpoint/open sequences and checkpoint/journal files of
// generations other than the current one. It only runs while the store
// is degraded (no checkpoint can be mid-flight — they run under the
// latch and the degraded check precedes them) and defers to backup pins,
// which may still be copying retired generations.
func (d *DB) reclaimSpace() {
	d.mu.Lock()
	if d.bgErr == nil || d.closed || d.ckptPins > 0 {
		d.mu.Unlock()
		return
	}
	gen := d.gen
	names, err := d.opts.FS.List(d.dir)
	if err != nil {
		d.mu.Unlock()
		return
	}
	var victims []string
	for _, name := range names {
		full := d.dir + "/" + name
		var g uint64
		switch {
		case strings.HasSuffix(name, ".new"), strings.HasSuffix(name, ".tmp"):
			victims = append(victims, full)
		case parseGen(name, "ckpt-%06d.db", &g) && g != gen:
			victims = append(victims, full)
		case parseGen(name, "journal-%06d.log", &g) && g != gen:
			victims = append(victims, full)
		}
	}
	d.mu.Unlock()
	for _, v := range victims {
		d.opts.FS.Remove(v)
	}
}

// parseGen extracts the generation number from a file name matching the
// given pattern, requiring the whole name to be consumed.
func parseGen(name, pattern string, g *uint64) bool {
	var tail string
	n, err := fmt.Sscanf(name, pattern+"%s", g, &tail)
	return err != nil && n == 1 // %s must fail: nothing may follow the pattern
}
