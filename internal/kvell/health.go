package kvell

import "p2kvs/internal/kv"

// Disk-full handling.
//
// KVell has no log and no background reorganization: slabs are updated in
// place and grown at the tail. A WriteAt or Sync that hits ENOSPC means
// the device is full right now, and nothing the store owns can be
// reclaimed (every slab slot is either live or on a free list that will
// be reused in place). So the store simply degrades to read-only —
// rejecting writes at submit, before they reach a worker queue — and the
// engine guard (internal/guard, given no reclaim hook) probes until an
// external actor frees space, then auto-resumes. Slots touched by the
// failed write are safe: a torn slot is detected at recovery scan time by
// its header/key mismatch, and an in-place overwrite that failed still
// holds either the old or a torn image the index no longer trusts after
// restart.

// Health implements kv.HealthReporter.
func (s *Store) Health() kv.Health { return s.g.Health() }

// Resume implements kv.HealthReporter. There is no log to re-platform: clearing
// the degraded state is sufficient, the next write retries its slot. A
// store with a poisoned partition stays read-only — only a restore proves
// what its index is missing.
func (s *Store) Resume() error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return kv.ErrClosed
	}
	if s.g.Quarantined.Load() == 0 {
		s.g.Clear()
	}
	return nil
}
