// The -hotcache_bench mode: a before/after measurement of the hot-key
// read cache under skewed load. Two identical stores are built over the
// same simulated device profile — one with the cache disabled, one with
// it enabled — loaded with the same keys, and driven through zipfian
// ycsb-c (100% reads), ycsb-b (95% reads / 5% writes) and ycsb-a (50 / 50:
// half the ops write the keys the other half read, so the cache earns
// anything there only by write-through). The result is emitted as a single
// BENCH json line for scripted consumption; the headline number is the
// ycsb-c speedup.
package main

import (
	"fmt"
	"os"
	"strings"

	"p2kvs"
	"p2kvs/internal/loadgen"
)

func runHotCacheBench(opts p2kvs.Options, run runConfig) {
	opts.InMemory = true
	if opts.HotCacheBytes == 0 {
		opts.HotCacheBytes = -1 // default budget; 0 would bench nothing
	}
	opts.SimulateDevice = "sata"
	fmt.Printf("hotcache bench: engine=%s workers=%d keys=%d value=%dB threads=%d device=%s scale=%g cache=%d\n",
		opts.Engine, opts.Workers, run.num, valueSize, run.threads, opts.SimulateDevice, opts.DeviceScale, opts.HotCacheBytes)

	boot := func(dir string, cache int64) *p2kvs.Store {
		o := opts
		o.Dir, o.HotCacheBytes = dir, cache
		s, err := p2kvs.Open(o)
		if err == nil {
			// Preload flushes, so reads hit SSTs (and the device), not
			// just memtables — the cache-off baseline must pay the real
			// read path.
			err = loadgen.Preload(s, run.num, valueSize)
		}
		if err != nil {
			fatal(fmt.Errorf("hotcache: %w", err))
		}
		return s
	}
	mixes := []string{"ycsb-c", "ycsb-b", "ycsb-a"}
	measure := func(s *p2kvs.Store) (ops []float64) {
		for _, mix := range mixes {
			tally, elapsed := run.phase(s, loadgen.MustLookup(mix), run.num)
			ops = append(ops, float64(tally.Ops.Load())/elapsed.Seconds())
		}
		return ops
	}

	offStore := boot("hotcache-off", 0)
	off := measure(offStore)
	offStore.Close()
	for i, mix := range mixes {
		fmt.Printf("%s nocache : %12.0f ops/sec\n", mix, off[i])
	}

	// Under test: cache on. A warm pass populates the hot set before
	// measurement, as any steady-state serving tier would be.
	onStore := boot("hotcache-on", opts.HotCacheBytes)
	run.phase(onStore, loadgen.MustLookup(mixes[0]), run.num)
	on := measure(onStore)
	snap := onStore.StatsSnapshot()
	onStore.Close()
	for i, mix := range mixes {
		fmt.Printf("%s cache   : %12.0f ops/sec (%.2fx)\n", mix, on[i], on[i]/off[i])
	}
	hitRate := 0.0
	if tot := snap.CacheHits + snap.CacheNegHits + snap.CacheMisses; tot > 0 {
		hitRate = float64(snap.CacheHits+snap.CacheNegHits) / float64(tot)
	}
	fmt.Printf("cache          : hits=%d misses=%d hit_rate=%.3f invalidations=%d updates=%d\n",
		snap.CacheHits, snap.CacheMisses, hitRate, snap.CacheInvalidations, snap.CacheUpdates)

	fields := []any{
		"engine", opts.Engine,
		"workers", opts.Workers,
		"keys", run.num,
		"value_size", valueSize,
		"threads", run.threads,
		"device", opts.SimulateDevice,
		"device_scale", opts.DeviceScale,
		"cache_bytes", opts.HotCacheBytes,
	}
	for i, mix := range mixes {
		name := strings.ReplaceAll(mix, "-", "") // ycsbc_speedup, ...
		fields = append(fields, name+"_ops_nocache", off[i], name+"_ops_cache", on[i], name+"_speedup", on[i]/off[i])
	}
	loadgen.EmitBench(os.Stdout, "hotcache", append(fields,
		"cache_hits", snap.CacheHits,
		"cache_misses", snap.CacheMisses,
		"cache_hit_rate", hitRate,
		"cache_invalidations", snap.CacheInvalidations,
		"cache_updates", snap.CacheUpdates)...)
}
