// The -hotcache_bench mode: a before/after measurement of the hot-key
// read cache under skewed load. Two identical stores are built over the
// same simulated device profile — one with the cache disabled, one with
// it enabled — loaded with the same keys, and driven through zipfian
// ycsb-c (100% reads) and ycsb-b (95% reads / 5% writes). The result is
// emitted as a single BENCH json line for scripted consumption; the
// headline number is the ycsb-c speedup.
package main

import (
	"fmt"
	"os"

	"p2kvs"
	"p2kvs/internal/loadgen"
)

func runHotCacheBench(opts p2kvs.Options, run runConfig) {
	opts.InMemory = true
	if opts.HotCacheBytes == 0 {
		opts.HotCacheBytes = -1 // default budget; 0 would bench nothing
	}
	if opts.SimulateDevice == "" {
		opts.SimulateDevice = "sata"
	}
	fmt.Printf("hotcache bench: engine=%s workers=%d keys=%d value=%dB threads=%d device=%s scale=%g cache=%d\n",
		opts.Engine, opts.Workers, run.num, run.valueSize, run.threads, opts.SimulateDevice, opts.DeviceScale, opts.HotCacheBytes)

	boot := func(dir string, cache int64) *p2kvs.Store {
		o := opts
		o.Dir, o.HotCacheBytes = dir, cache
		s, err := p2kvs.Open(o)
		if err == nil {
			// Preload flushes, so reads hit SSTs (and the device), not
			// just memtables — the cache-off baseline must pay the real
			// read path.
			err = loadgen.Preload(s, run.num, run.valueSize)
		}
		if err != nil {
			fatal(fmt.Errorf("hotcache: %w", err))
		}
		return s
	}
	opsPerSec := func(s *p2kvs.Store, mix string) float64 {
		tally, elapsed := run.phase(s, loadgen.MustLookup(mix), run.num)
		return float64(tally.Ops.Load()) / elapsed.Seconds()
	}

	off := boot("hotcache-off", 0)
	cOff, bOff := opsPerSec(off, "ycsb-c"), opsPerSec(off, "ycsb-b")
	off.Close()
	fmt.Printf("ycsb-c nocache : %12.0f ops/sec\n", cOff)
	fmt.Printf("ycsb-b nocache : %12.0f ops/sec\n", bOff)

	// Under test: cache on. A warm pass populates the hot set before
	// measurement, as any steady-state serving tier would be.
	on := boot("hotcache-on", opts.HotCacheBytes)
	opsPerSec(on, "ycsb-c")
	cOn, bOn := opsPerSec(on, "ycsb-c"), opsPerSec(on, "ycsb-b")
	snap := on.StatsSnapshot()
	on.Close()
	fmt.Printf("ycsb-c cache   : %12.0f ops/sec (%.2fx)\n", cOn, cOn/cOff)
	fmt.Printf("ycsb-b cache   : %12.0f ops/sec (%.2fx)\n", bOn, bOn/bOff)
	hitRate := 0.0
	if tot := snap.CacheHits + snap.CacheNegHits + snap.CacheMisses; tot > 0 {
		hitRate = float64(snap.CacheHits+snap.CacheNegHits) / float64(tot)
	}
	fmt.Printf("cache          : hits=%d misses=%d hit_rate=%.3f invalidations=%d\n",
		snap.CacheHits, snap.CacheMisses, hitRate, snap.CacheInvalidations)

	loadgen.EmitBench(os.Stdout, "hotcache",
		"engine", opts.Engine,
		"workers", opts.Workers,
		"keys", run.num,
		"value_size", run.valueSize,
		"threads", run.threads,
		"device", opts.SimulateDevice,
		"device_scale", opts.DeviceScale,
		"cache_bytes", opts.HotCacheBytes,
		"ycsbc_ops_nocache", cOff,
		"ycsbc_ops_cache", cOn,
		"ycsbc_speedup", cOn/cOff,
		"ycsbb_ops_nocache", bOff,
		"ycsbb_ops_cache", bOn,
		"ycsbb_speedup", bOn/bOff,
		"cache_hits", snap.CacheHits,
		"cache_misses", snap.CacheMisses,
		"cache_hit_rate", hitRate,
		"cache_invalidations", snap.CacheInvalidations)
}
