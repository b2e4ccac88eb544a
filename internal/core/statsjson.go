package core

import (
	"encoding/json"

	"p2kvs/internal/reshard"
	"p2kvs/internal/stats"
)

// StatsSnapshot is the stats document of the whole store — what
// StatsJSON, /metrics, INFO and the bench reports all read: an aggregate
// over all workers (ID -1, each field folded by its agg tag) plus the
// per-worker breakdown and the store-level state.
type StatsSnapshot struct {
	Workers   int           `json:"workers"`
	Aggregate WorkerStats   `json:"aggregate"`
	PerWorker []WorkerStats `json:"per_worker"`
	// Store-level checkpoint state: committed checkpoints, the last
	// barrier's worker-pause duration, and the last commit time (unix
	// seconds, 0 before the first checkpoint).
	Checkpoints         int64 `json:"store_checkpoints" info:"Persistence"`
	CheckpointBarrierNs int64 `json:"checkpoint_barrier_ns" info:"Persistence,store_checkpoint_barrier_ns"`
	LastCheckpointUnix  int64 `json:"last_checkpoint_unix" info:"Persistence,store_last_checkpoint_unix"`
	// Replication backlog state (all zero/empty when Options.ReplLog is
	// nil): the store's GSN watermark, the backlog's retained size and
	// lifetime append/trim counters, and the number of attached replica
	// pins currently deferring tail truncation.
	ReplGSN            uint64 `json:"repl_gsn" info:"Replication,master_repl_gsn"`
	ReplBacklogBytes   int64  `json:"repl_backlog_bytes" info:"Replication"`
	ReplBacklogRecords int64  `json:"repl_backlog_records" info:"Replication"`
	ReplAppended       int64  `json:"repl_appended" info:"Replication,repl_backlog_appended"`
	ReplTrimmed        int64  `json:"repl_trimmed" info:"Replication,repl_backlog_trimmed"`
	ReplPins           int    `json:"repl_pins"`
	// Hot-key read cache state (all zero when Options.HotCacheBytes is
	// zero): hits served without touching a worker (positive and cached
	// not-found separately), misses that fell through to the queues,
	// successful fills, clock evictions, writer watermark bumps, and the
	// resident footprint.
	CacheEnabled       bool  `json:"cache_enabled" info:"Cache"`
	CacheHits          int64 `json:"cache_hits" info:"Cache"`
	CacheNegHits       int64 `json:"cache_neg_hits" info:"Cache"`
	CacheMisses        int64 `json:"cache_misses" info:"Cache"`
	CacheFills         int64 `json:"cache_fills" info:"Cache"`
	CacheEvictions     int64 `json:"cache_evictions" info:"Cache"`
	CacheInvalidations int64 `json:"cache_invalidations" info:"Cache"`
	CacheBytes         int64 `json:"cache_bytes" info:"Cache"`
	CacheEntries       int64 `json:"cache_entries" info:"Cache"`
	// Reshard carries the online-resharding subsystem's counters (zero
	// state "idle" when no reshard has run).
	Reshard reshard.Stats `json:"reshard"`
}

// StatsSnapshot captures Stats() plus the store-level state.
func (s *Store) StatsSnapshot() StatsSnapshot {
	snap := StatsSnapshot{PerWorker: s.Stats(), Aggregate: WorkerStats{ID: -1}}
	snap.Workers = len(snap.PerWorker)
	for i := range snap.PerWorker {
		stats.Merge(&snap.Aggregate, &snap.PerWorker[i])
	}
	snap.Checkpoints = s.ckptCount.Load()
	snap.CheckpointBarrierNs = s.ckptBarrierNs.Load()
	snap.LastCheckpointUnix = s.lastCkptUnix.Load()
	if l := s.opts.ReplLog; l != nil {
		rs := l.Stats()
		snap.ReplGSN = s.gsn.Load()
		snap.ReplBacklogBytes = rs.Bytes
		snap.ReplBacklogRecords = rs.Records
		snap.ReplAppended = rs.Appended
		snap.ReplTrimmed = rs.Trimmed
		snap.ReplPins = rs.Pins
	}
	snap.Reshard = s.tracker.Snapshot()
	if s.cache != nil {
		cs := s.cache.Stats()
		snap.CacheEnabled = true
		snap.CacheHits = cs.Hits
		snap.CacheNegHits = cs.NegHits
		snap.CacheMisses = cs.Misses
		snap.CacheFills = cs.Fills
		snap.CacheEvictions = cs.Evictions
		snap.CacheInvalidations = cs.Invalidations
		snap.CacheBytes = cs.Bytes
		snap.CacheEntries = cs.Entries
	}
	return snap
}

// StatsJSON renders StatsSnapshot as JSON. The encoding is stable (fixed
// field set and order), so it is safe to diff across runs and scrape.
func (s *Store) StatsJSON() ([]byte, error) {
	return json.Marshal(s.StatsSnapshot())
}
