package core

import (
	"p2kvs/internal/hotcache"
	"p2kvs/internal/repl"
	"p2kvs/internal/reshard"
	"p2kvs/internal/stats"
)

// StatsSnapshot is the stats document of the whole store — what
// /metrics, INFO and the bench reports all read: an aggregate
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
	// Replication backlog state (all zero when Options.ReplLog is nil):
	// the store's GSN watermark, then the backlog's retained size, lifetime
	// append/trim counters and attached replica pins.
	ReplGSN uint64 `json:"repl_gsn" info:"Replication,master_repl_gsn"`
	repl.BacklogStats
	// Hot-key read cache state (all zero when Options.HotCacheBytes is
	// zero).
	hotcache.Stats
	// Reshard carries the online-resharding subsystem's counters (zero
	// state "idle" when no reshard has run).
	Reshard reshard.Stats `json:"reshard"`
}

func init() { stats.Merge(&WorkerStats{}, WorkerStats{}) } // dry run: vets the agg tags

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
		snap.ReplGSN = s.gsn.Load()
		snap.BacklogStats = l.Stats()
	}
	snap.Reshard = s.tracker.Snapshot()
	snap.Stats = s.cache.Stats()
	return snap
}
