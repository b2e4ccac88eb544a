package lsm

import (
	"sync/atomic"
	"time"

	"p2kvs/internal/kv"
)

// Perf aggregates the write-path breakdown the paper measures in Figure 6
// plus the flush/compaction IO counters behind Figures 4, 5b and 12.
// All fields are cumulative; callers snapshot and diff.
type Perf struct {
	// Write-path breakdown (Figure 6). WAL and WALLock come from the wal
	// package; the rest is metered in the engine write path.
	Writes        int64
	WALTime       time.Duration // log encode + IO
	WALLockTime   time.Duration // group-logging queueing/wakeup
	MemTime       time.Duration // skiplist insertion
	MemLockTime   time.Duration // writer-lock wait before insertion
	StallTime     time.Duration // write stalls (L0/immutable backpressure)
	SlowdownTime  time.Duration // soft-slowdown sleeps (below the stall trigger)
	TotalTime     time.Duration // end-to-end Write() time
	UserBytes     int64         // key+value bytes accepted from callers
	FlushBytes    int64         // bytes written by memtable flushes
	CompactRead   int64         // bytes read by compactions
	CompactWrite  int64         // bytes written by compactions
	Compactions   int64
	Flushes       int64
	GetCount      int64
	BloomSkips    int64 // table probes skipped by bloom filters
	TableProbes   int64 // SSTable Get probes actually performed
	WriteGroupIOs int64 // WAL IOs after group aggregation
}

// perfCounters is the atomic backing store for Perf.
type perfCounters struct {
	writes              atomic.Int64
	memNs               atomic.Int64
	memLockNs           atomic.Int64
	stallNs             atomic.Int64
	slowdownNs          atomic.Int64
	slowdowns           atomic.Int64
	totalNs             atomic.Int64
	userBytes           atomic.Int64
	flushBytes          atomic.Int64
	compactRead         atomic.Int64
	compactWrite        atomic.Int64
	compactions         atomic.Int64
	subcompactions      atomic.Int64
	concurrentCompactHW atomic.Int64 // updated under d.mu (read lock-free)
	flushes             atomic.Int64
	gets                atomic.Int64
	bloomSkips          atomic.Int64
	tableProbes         atomic.Int64
	walIONsBase         atomic.Int64 // carried over from rotated WAL writers
	walLockNsBase       atomic.Int64
	walGroupBase        atomic.Int64

	// Robustness: background job attempts beyond the first.
	flushRetries   atomic.Int64
	compactRetries atomic.Int64
}

// Perf snapshots the engine's counters.
func (d *DB) Perf() Perf {
	p := Perf{
		Writes:       d.perf.writes.Load(),
		MemTime:      time.Duration(d.perf.memNs.Load()),
		MemLockTime:  time.Duration(d.perf.memLockNs.Load()),
		StallTime:    time.Duration(d.perf.stallNs.Load()),
		SlowdownTime: time.Duration(d.perf.slowdownNs.Load()),
		TotalTime:    time.Duration(d.perf.totalNs.Load()),
		UserBytes:    d.perf.userBytes.Load(),
		FlushBytes:   d.perf.flushBytes.Load(),
		CompactRead:  d.perf.compactRead.Load(),
		CompactWrite: d.perf.compactWrite.Load(),
		Compactions:  d.perf.compactions.Load(),
		Flushes:      d.perf.flushes.Load(),
		GetCount:     d.perf.gets.Load(),
		BloomSkips:   d.perf.bloomSkips.Load(),
		TableProbes:  d.perf.tableProbes.Load(),
	}
	p.WALTime = time.Duration(d.perf.walIONsBase.Load())
	p.WALLockTime = time.Duration(d.perf.walLockNsBase.Load())
	p.WriteGroupIOs = d.perf.walGroupBase.Load()
	d.mu.Lock()
	if d.wal != nil {
		st := d.wal.Stats()
		p.WALTime += st.IOTime
		p.WALLockTime += st.LockTime
		p.WriteGroupIOs += st.GroupIOs
	}
	d.mu.Unlock()
	return p
}

// OtherTime derives the residual latency component ("Others" in Figure 6).
func (p Perf) OtherTime() time.Duration {
	other := p.TotalTime - p.WALTime - p.WALLockTime - p.MemTime - p.MemLockTime - p.StallTime - p.SlowdownTime
	if other < 0 {
		return 0
	}
	return other
}

// CompactionStats implements kv.CompactionStatsReporter.
func (d *DB) CompactionStats() kv.CompactionStats {
	return kv.CompactionStats{
		Compactions:    d.perf.compactions.Load(),
		Subcompactions: d.perf.subcompactions.Load(),
		MaxConcurrent:  d.perf.concurrentCompactHW.Load(),
		StallUs:        d.perf.stallNs.Load() / 1e3,
		SlowdownUs:     d.perf.slowdownNs.Load() / 1e3,
		Slowdowns:      d.perf.slowdowns.Load(),
	}
}

// BlockCacheStats reports block-cache hit/miss counts (zero when the
// cache is disabled).
func (d *DB) BlockCacheStats() (hits, misses int64) {
	h, m, _ := d.blocks.Stats()
	return h, m
}
