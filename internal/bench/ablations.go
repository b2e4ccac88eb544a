package bench

import (
	"errors"
	"time"

	"p2kvs/internal/core"
	"p2kvs/internal/device"
	"p2kvs/internal/keyspace"
	"p2kvs/internal/kv"
	"p2kvs/internal/loadgen"
	"p2kvs/internal/lsm"
	"p2kvs/internal/vfs"
)

// runAblationBatch sweeps OBM's maximum batch size (the paper fixes 32
// as a tail-latency guard; this quantifies the choice). Expected shape:
// write QPS climbs steeply to ~16-32 then flattens.
func runAblationBatch(e Env) (*Table, error) {
	tbl := NewTable("Ablation: OBM max batch size (p2KVS-4, 16 submitters, random write)",
		"max batch", "simQPS", "avg formed batch")
	for _, max := range ends(e, 1, 4, 8, 16, 32, 128) {
		fs, scale := newDevFS(device.NVMe)
		s, err := openP2(fs, "p2", 4, true, lsm.RocksDBOptions, func(o *core.Options) { o.MaxBatch = max })
		if err != nil {
			return nil, err
		}
		res, err := asyncFill(e, s, 16, scale, e.ValueSize)
		if err != nil {
			s.Close()
			return nil, err
		}
		agg := s.StatsSnapshot().Aggregate
		s.Close()
		avg := 0.0
		if agg.Batches > 0 {
			avg = float64(agg.Ops) / float64(agg.Batches)
		}
		tbl.Add(max, res.SimQPS, avg)
	}
	return tbl, nil
}

// runAblationPartition compares the default hash partitioner with a
// static range partitioner under uniform and zipfian load, reporting QPS
// and the worker-load imbalance (max/mean ops). Expected shape: hash
// stays balanced under skew; range partitioning concentrates hot ranges.
func runAblationPartition(e Env) (*Table, error) {
	tbl := NewTable("Ablation: partitioning strategy (p2KVS-4, 16 submitters)",
		"distribution", "partitioner", "simQPS", "load imbalance (max/mean)")
	const workers = 4
	for _, dist := range []string{"uniform", "zipfian"} {
		for _, part := range []string{"hash", "range"} {
			fs, scale := newDevFS(device.NVMe)
			s, err := openP2(fs, "p2", workers, true, lsm.RocksDBOptions, func(o *core.Options) {
				if part == "range" {
					// Static splits assuming uniform key text (user....).
					splits := make([][]byte, workers-1)
					for i := range splits {
						splits[i] = loadgen.Key(uint64((i + 1) * e.Keys / workers))
					}
					o.Partitioner = keyspace.NewRange(splits)
				}
			})
			if err != nil {
				return nil, err
			}
			choosers := perThreadChoosers(dist, 16, e.Keys)
			res, err := e.measure(16, scale, func(tid, _ int) error {
				return put(s, choosers[tid].Next(), e.ValueSize)
			})
			if err != nil {
				s.Close()
				return nil, err
			}
			var most, sum float64
			for _, ws := range s.Stats() {
				most = max(most, float64(ws.Ops))
				sum += float64(ws.Ops)
			}
			s.Close()
			imbalance := 0.0
			if sum > 0 {
				imbalance = most / (sum / float64(workers))
			}
			tbl.Add(dist, part, res.SimQPS, imbalance)
		}
	}
	return tbl, nil
}

// runAblationScan measures the SCAN path the store picks (§4.4) against the
// merged iterator walked by the client, across scan sizes and client
// threads. The store fans a scan out to every worker only when every worker
// is idle and fewer scans than workers run, and otherwise walks the merged
// iterator itself; a fan-out runs one closure per worker, so the legs the
// workers ran over the worker count is the number of fan-outs. Expected
// shape: one thread fans out every scan and wins several-fold (over-read is
// free on an idle device); at 16 threads nearly every scan walks and the
// pick matches the merged walk.
func runAblationScan(e Env) (*Table, error) {
	const workers = 8
	tbl := NewTable("Ablation: SCAN path (p2KVS-8, uniform start keys)",
		"threads", "scan size", "picked simQPS", "merged walk simQPS", "fan-out share %")
	s, scale, err := openOn(e, device.NVMe, e.ValueSize, func(fs vfs.FS) (*core.Store, error) {
		return openP2(fs, "p2", workers, true, lsm.RocksDBOptions)
	})
	if err != nil {
		return nil, err
	}
	defer s.Close()
	// walk hides the store's Scan, so loadgen walks its merged iterator on
	// the client thread: the path a scan takes when the store is busy.
	walk := struct{ kv.Engine }{s}
	for _, threads := range ends(e, 1, 4, 16) {
		for _, size := range ends(e, 10, 100, 1000) {
			row := []interface{}{threads, size}
			legs := s.StatsSnapshot().Aggregate.Ops
			var scans int64 // the store's own, by either path
			for i, sys := range []loadgen.KV{s, walk} {
				starts := perThreadChoosers("uniform", threads, e.Keys-size)
				res, err := e.measure(threads, scale, func(tid, _ int) error {
					return loadgen.Exec(sys, loadgen.Op{Type: loadgen.OpScan, KeyIdx: starts[tid].Next(), ScanLen: size}, 0, 0, nil)
				})
				if err != nil {
					return nil, err
				}
				if i == 0 {
					scans = res.Ops
				}
				row = append(row, res.SimQPS)
			}
			fanOuts := float64(s.StatsSnapshot().Aggregate.Ops-legs) / workers
			tbl.Add(append(row, 100*fanOuts/float64(scans))...)
		}
	}
	return tbl, nil
}

// runAblationCache quantifies the per-instance block cache (the paper's
// RocksDB instances run 8 MB block caches, §5.5): read throughput on a
// zipfian working set with the cache disabled vs enabled, each cell after an
// unmeasured warm-up pass. Expected shape: the cache absorbs the hot set,
// multiplying read QPS.
func runAblationCache(e Env) (*Table, error) {
	tbl := NewTable("Ablation: block cache (RocksDB preset, zipfian reads, 8 threads)",
		"block cache", "simQPS", "hit rate %")
	for _, cacheSize := range []int64{-1, 8 << 20} {
		db, scale, err := openOn(e, device.NVMe, e.ValueSize, func(fs vfs.FS) (*lsm.DB, error) {
			return openRocks(fs, "db", func(o *lsm.Options) { o.BlockCacheSize = cacheSize })
		})
		if err != nil {
			return nil, err
		}
		choosers := perThreadChoosers("zipfian", 8, e.Keys)
		op := func(tid, _ int) error { return get(db, choosers[tid].Next()) }
		// One unmeasured pass of e.Keys lookups warms the cache, so the hit
		// rate is the warm cache's whatever the cell's length.
		warm := e
		warm.MaxOps, warm.Budget = e.Keys, time.Hour
		_, err = warm.measure(8, scale, op)
		hits0, misses0 := db.BlockCacheStats()
		var res Res
		if err == nil {
			res, err = e.measure(8, scale, op)
		}
		hits, misses := db.BlockCacheStats()
		db.Close()
		if err != nil {
			return nil, err
		}
		hits, misses = hits-hits0, misses-misses0
		label := "off"
		hitRate := 0.0
		if cacheSize > 0 {
			label = "8MB"
			if hits+misses > 0 {
				hitRate = 100 * float64(hits) / float64(hits+misses)
			}
		}
		tbl.Add(label, res.SimQPS, hitRate)
	}
	return tbl, nil
}

// runAblationDirectRead measures the direct rule, the one extension of the
// request path the paper figures run without (openP2): a synchronous
// operation whose worker is idle runs on the client thread instead of
// crossing to the worker. Both columns are simulated time on the NVMe model
// (the engine's per-lookup and per-record costs sleep wherever the call
// runs). The host time the rule saves — the two goroutine wake-ups of the
// handoff — is measured by the wire-pipeline benchmark and by core's
// BenchmarkGet, BenchmarkMultiGet, BenchmarkPut and BenchmarkWriteEach, not
// here: cells this short vary too much run to run in host time. Measured
// shape for GET: one thread gains nothing, 2-16 gain up to 1.8x (no longer
// funnelled through four worker "cores") and OBM's multiget catches up at
// 32. The direct share stays 100%: a read that never enters a queue never
// makes a worker look busy. The MGET rows are a 16-key MultiGet, whose direct legs run one
// after another on the client thread where queued legs run on four workers
// at once: the price of the rule on a slow device (a row's ops are MGETs,
// its share is of keys). SET is a lone Put; MSET is 16 keys written as one
// WriteEachCtx, the call a pipelined run of SETs becomes, whose idle
// workers' legs the client commits in turn (an MSET command is one atomic
// WriteCtx and always queues). A direct write holds its worker's exec lock,
// so concurrent writers to it queue behind it and OBM merges them; reads do
// not. GET+SET/hot, the one row with a hot cache (32 MiB), has even threads
// GET and odd ones SET zipfian keys: reads run beside direct writes, which
// fence their keys (its share counts writes and reads that missed).
func runAblationDirectRead(e Env) (*Table, error) {
	const batchKeys = 16
	tbl := NewTable("Ablation: direct rule (p2KVS-4, sync GET, 16-key MGET, SET, 16-key MSET and GET beside SET on a hot cache, preloaded)",
		"op", "threads", "queued simQPS", "direct simQPS", "direct share %")
	for _, op := range []string{"GET", "MGET", "SET", "MSET", "GET+SET/hot"} {
		dist, axis, cacheBytes := "uniform", ends(e, 1, 2, 4, 8, 16, 32), int64(0)
		if op == "GET+SET/hot" {
			dist, axis, cacheBytes = "zipfian", ends(e, 2, 8, 32), -1
		}
		for _, threads := range axis {
			row := []interface{}{op, threads}
			var share float64
			for _, direct := range []bool{false, true} {
				s, scale, err := openOn(e, device.NVMe, e.ValueSize, func(fs vfs.FS) (*core.Store, error) {
					return openP2(fs, "p2", 4, true, lsm.RocksDBOptions, func(o *core.Options) { o.Direct, o.HotCacheBytes = direct, cacheBytes })
				})
				if err != nil {
					return nil, err
				}
				choosers := perThreadChoosers(dist, threads, e.Keys)
				keys := 1
				var call func(tid, _ int) error
				switch op {
				case "GET":
					call = func(tid, _ int) error { return get(s, choosers[tid].Next()) }
				case "SET":
					call = func(tid, _ int) error { return put(s, choosers[tid].Next(), e.ValueSize) }
				case "GET+SET/hot":
					call = func(tid, _ int) error {
						if tid%2 == 0 {
							return get(s, choosers[tid].Next())
						}
						return put(s, choosers[tid].Next(), e.ValueSize)
					}
				case "MGET":
					keys = batchKeys
					batches := make([][][]byte, threads)
					call = func(tid, _ int) error {
						b := batches[tid][:0]
						for range batchKeys {
							b = append(b, loadgen.Key(choosers[tid].Next()))
						}
						batches[tid] = b
						_, err := s.MultiGet(b)
						return err
					}
				case "MSET":
					keys = batchKeys
					batches := make([]kv.Batch, threads)
					call = func(tid, _ int) error {
						b := &batches[tid]
						b.Reset()
						for range batchKeys {
							idx := choosers[tid].Next()
							b.Put(loadgen.Key(idx), loadgen.Value(idx, 0, e.ValueSize))
						}
						errs := make([]error, batchKeys)
						s.WriteEachCtx(nil, b, errs)
						return errors.Join(errs...)
					}
				}
				res, err := e.measure(threads, scale, call)
				agg := s.StatsSnapshot().Aggregate
				s.Close()
				if err != nil {
					return nil, err
				}
				row = append(row, res.SimQPS)
				if direct && res.Ops > 0 {
					ran := agg.DirectReads + agg.DirectWrites // a row's ops read or write, or (hot) both
					share = 100 * float64(ran) / float64(res.Ops*int64(keys))
				}
			}
			tbl.Add(append(row, share)...)
		}
	}
	return tbl, nil
}
