package kvell

import (
	"fmt"

	"p2kvs/internal/kv"
	"p2kvs/internal/vfs"
)

// Disk-full handling.
//
// KVell has no log and no background reorganization: slabs are updated in
// place and grown at the tail. A WriteAt or Sync that hits ENOSPC means
// the device is full right now, and nothing the store owns can be
// reclaimed (every slab slot is either live or on a free list that will
// be reused in place). So the store simply degrades to read-only —
// rejecting writes at submit, before they reach a worker queue — and the
// space watchdog probes until an external actor frees space, then
// auto-resumes. Slots touched by the failed write are safe: a torn slot
// is detected at recovery scan time by its header/key mismatch, and an
// in-place overwrite that failed still holds either the old or a torn
// image the index no longer trusts after restart.

// degradedError rejects writes while the store is degraded. It matches
// kv.ErrDegraded via errors.Is and unwraps to the causing failure.
type degradedError struct {
	cause error
}

func (e *degradedError) Error() string {
	return fmt.Sprintf("kvell: store degraded to read-only: %v", e.cause)
}

func (e *degradedError) Unwrap() error { return e.cause }

func (e *degradedError) Is(target error) bool { return target == kv.ErrDegraded }

// noteNoSpace is called by workers (and Flush) when a slab write or sync
// fails with space exhaustion. First failure wins.
func (s *Store) noteNoSpace(cause error) {
	s.mu.Lock()
	if s.bgErr == nil && !s.closed {
		s.bgErr = &degradedError{cause: cause}
		s.diskFull = true
		s.diskFullEvents.Add(1)
		if s.spaceWatch != nil {
			s.spaceWatch.Kick()
		}
	}
	s.mu.Unlock()
}

// Health implements kv.HealthReporter.
func (s *Store) Health() kv.Health {
	h := kv.Health{
		State:            kv.StateHealthy,
		DiskFullEvents:   s.diskFullEvents.Load(),
		AutoResumes:      s.autoResumes.Load(),
		CorruptionEvents: s.corruptionEvents.Load(),
		InjectedFaults:   vfs.InjectedFaults(s.opts.FS),
	}
	// worker.corrupt is written only during open, before the worker
	// goroutine starts — safe to read without the queue.
	for _, w := range s.workers {
		if w.corrupt != nil {
			h.QuarantinedFiles++ // one poisoned partition ≈ one quarantined slab set
			h.LastCorruption = kv.CauseOf(w.corrupt)
			h.State = kv.StateReadOnly
			h.Err = kv.CauseOf(w.corrupt)
		}
	}
	s.mu.RLock()
	if h.LastCorruption == nil {
		h.LastCorruption = kv.CauseOf(s.lastCorr)
	}
	if s.bgErr != nil {
		h.State = kv.StateReadOnly
		h.Err = kv.CauseOf(s.bgErr)
		h.DiskFull = s.diskFull
	}
	s.mu.RUnlock()
	return h
}

// Resume implements kv.Resumer. There is no log to re-platform: clearing
// the degraded flag is sufficient, the next write retries its slot.
func (s *Store) Resume() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return kv.ErrClosed
	}
	s.bgErr = nil
	s.diskFull = false
	return nil
}

// diskFullDegraded is the watchdog's "still stuck?" predicate.
func (s *Store) diskFullDegraded() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.diskFull && s.bgErr != nil && !s.closed
}

// spaceProbe checks whether a small durable write succeeds. No GC: the
// store owns nothing reclaimable (see package note above).
func (s *Store) spaceProbe() bool {
	return vfs.ProbeSpace(s.opts.FS, s.dir)
}

// autoResume is invoked by the watchdog once the probe succeeds while
// the store is still disk-full degraded.
func (s *Store) autoResume() {
	s.autoResumes.Add(1)
	_ = s.Resume()
}
