// Package lsm implements the full LSM-tree storage engine the paper's
// analysis targets: WAL with group logging, memtable (exclusive or
// concurrent skiplist), background flush, leveled compaction over
// SSTables, MANIFEST-based recovery, WriteBatch and MultiGet.
//
// The engine is configurable enough to stand in for the three LSM stores
// in the paper's evaluation — RocksDB, LevelDB and PebblesDB — as option
// presets. Keeping them one code base means comparisons exercise
// identical code paths except for the feature under test (concurrent
// memtable, pipelined writes, fragmented compaction).
package lsm

import (
	"time"

	"p2kvs/internal/kv"
	"p2kvs/internal/vfs"
	"p2kvs/internal/wal"
)

// CompactionStyle selects how levels are maintained.
type CompactionStyle int

// Compaction styles.
const (
	// Leveled is classic LevelDB/RocksDB leveled compaction: levels >= 1
	// hold sorted, non-overlapping files; compaction merges into the next
	// level, rewriting the overlapping portion.
	Leveled CompactionStyle = iota
	// Fragmented is the PebblesDB-style FLSM policy: compaction
	// partitions a level's data at guard boundaries and appends the
	// fragments to the next level without rewriting that level's existing
	// data, trading read fan-out for much lower write amplification.
	Fragmented
)

const (
	// slowdownDelay is the maximum per-write sleep applied at the top of
	// the slowdown band (scaled down linearly toward L0SlowdownTrigger).
	slowdownDelay = time.Millisecond
	// levelMultiplier is the per-level size ratio.
	levelMultiplier = 10
	// maxBackgroundCompactions bounds how many compactions of disjoint
	// level/key ranges run concurrently (scheduler.go).
	maxBackgroundCompactions = 2
)

// Options configures the engine.
type Options struct {
	// FS hosts all engine files. Wrap with internal/device to simulate a
	// specific disk. Required.
	FS vfs.FS

	// RocksDBFeatures switches on what RocksDB has and LevelDB lacks: the
	// CAS skiplist memtable, so multiple writers insert in parallel
	// (allow_concurrent_memtable_write); pipelined writes, so memtable
	// insertion proceeds outside the write group, overlapping the next
	// group's logging; and the batched-read (MultiGet) capability. Without
	// it the whole write path is serialized under one writer lock and
	// MultiGet fails (LevelDB behaviour).
	RocksDBFeatures bool
	// WALSync selects the WAL durability policy (wal.PolicyNever /
	// PolicyInterval / PolicyCommit). The zero value, PolicyNever, is
	// RocksDB async logging, as configured in the paper's experiments
	// (§3.4). See DESIGN.md §11 for what each policy gives at SIGKILL.
	WALSync wal.SyncPolicy
	// WALSyncInterval bounds durability staleness under PolicyInterval
	// (default 100ms).
	WALSyncInterval time.Duration
	// MemTableOnly skips logging and short-circuits flush: memtables are
	// dropped when full instead of written to L0 (Figure 8b isolates the
	// index path).
	MemTableOnly bool
	// WALOnly skips memtable insertion and flush entirely (Figure 8a
	// isolates the logging path).
	WALOnly bool

	// MemTableSize is the write-buffer budget in bytes before rotation.
	MemTableSize int64
	// MaxImmutables bounds the flush queue; writers stall beyond it.
	MaxImmutables int
	// L0CompactionTrigger is the L0 file count that schedules compaction.
	L0CompactionTrigger int
	// L0StallTrigger is the L0 file count that stalls writers.
	L0StallTrigger int
	// L0SlowdownTrigger is the L0 file count at which writers are delayed
	// with a scaled sleep instead of blocked — soft backpressure before
	// the hard stall. Defaults to the midpoint of L0CompactionTrigger and
	// L0StallTrigger.
	L0SlowdownTrigger int
	// BaseLevelSize is the L1 capacity; each level is levelMultiplier
	// times larger.
	BaseLevelSize int64
	// TargetFileSize bounds individual SSTables.
	TargetFileSize int64
	// Style selects Leveled or Fragmented compaction.
	Style CompactionStyle
	// BlockCacheSize is the per-instance data-block cache budget (the
	// paper's RocksDB instances run an 8 MB block cache, §5.5). 0 uses
	// the default; negative disables caching.
	BlockCacheSize int64
	// WALPerRecordCost / WALPerByteCost are forwarded to the WAL's
	// software-path cost model (see internal/wal Options); zero for
	// production use, set by the simulated-time benchmarks.
	WALPerRecordCost time.Duration
	WALPerByteCost   time.Duration
	// ReadPerOpCost models the per-lookup host software path (memtable
	// search, bloom probes, index walks) in simulated time. A Get, and a
	// MultiGet of one key, sleeps it in full. A MultiGet of more keys
	// sleeps 35% of it (RocksDB's documented multiget CPU saving) once per
	// started wave of 16 keys, the waves' charges overlapped: a 16-key
	// multiget costs 0.35×, not 1 + 15×0.35. Zero for production use.
	ReadPerOpCost time.Duration

	// RepairSource, when non-nil, supplies known-good backup bytes for
	// quarantined SSTs (keyed by base name, e.g. "000007.sst"). The
	// accessing layer builds one from the newest checkpoint generation;
	// without it corruption is contained but never repaired in place —
	// bad files are parked in <dir>/quarantine/ (see corruption.go).
	RepairSource kv.RepairSource

	// BgMaxRetries is the total number of attempts a failed background
	// flush or compaction gets before the engine degrades to read-only
	// (default 5).
	BgMaxRetries int
	// BgBaseBackoff is the delay before the first background retry; each
	// further retry doubles it up to BgMaxBackoff (defaults 5ms / 1s).
	BgBaseBackoff time.Duration
	BgMaxBackoff  time.Duration
}

func (o Options) withDefaults() Options {
	if o.MemTableSize <= 0 {
		o.MemTableSize = 4 << 20
	}
	if o.MaxImmutables <= 0 {
		o.MaxImmutables = 2
	}
	if o.L0CompactionTrigger <= 0 {
		o.L0CompactionTrigger = 4
	}
	if o.L0StallTrigger <= 0 {
		o.L0StallTrigger = 12
	}
	if o.L0SlowdownTrigger <= 0 {
		o.L0SlowdownTrigger = (o.L0CompactionTrigger + o.L0StallTrigger) / 2
	}
	if o.BaseLevelSize <= 0 {
		o.BaseLevelSize = 16 << 20
	}
	if o.TargetFileSize <= 0 {
		o.TargetFileSize = 2 << 20
	}
	if o.BlockCacheSize == 0 {
		o.BlockCacheSize = 8 << 20
	}
	if o.BgMaxRetries <= 0 {
		o.BgMaxRetries = 5
	}
	if o.BgBaseBackoff <= 0 {
		o.BgBaseBackoff = 5 * time.Millisecond
	}
	if o.BgMaxBackoff <= 0 {
		o.BgMaxBackoff = time.Second
	}
	if o.WALSync == wal.PolicyInterval && o.WALSyncInterval <= 0 {
		o.WALSyncInterval = 100 * time.Millisecond
	}
	return o
}

// RocksDBOptions returns the preset standing in for RocksDB with the
// paper's configuration: group logging, concurrent memtable, pipelined
// writes, multiget, async WAL.
func RocksDBOptions(fs vfs.FS) Options {
	return Options{
		FS:              fs,
		RocksDBFeatures: true,
		Style:           Leveled,
	}
}

// LevelDBOptions returns the preset standing in for LevelDB: exclusive
// memtable, serialized write path, batch-write but no multiget.
func LevelDBOptions(fs vfs.FS) Options {
	return Options{
		FS:    fs,
		Style: Leveled,
	}
}

// PebblesDBOptions returns the preset standing in for PebblesDB:
// LevelDB-derived write path (no concurrent-write optimizations, §5.2)
// with fragmented compaction for low write amplification.
func PebblesDBOptions(fs vfs.FS) Options {
	o := LevelDBOptions(fs)
	o.Style = Fragmented
	return o
}
