package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"syscall"
	"time"

	"p2kvs/internal/core"
	"p2kvs/internal/lsm"
)

const userBytesPerPut = keyLen + valueLen

// procSnapshot holds the process-wide counters read before and after a
// timed window.
type procSnapshot struct {
	mallocs, allocBytes uint64
	gcCycles            uint32
	gcPauseNs           uint64
	cpuNs               int64 // user + system
	fs                  fsSnapshot
}

func takeProc(fs *meteredFS) procSnapshot {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail with these arguments
	return procSnapshot{
		mallocs:    ms.Mallocs,
		allocBytes: ms.TotalAlloc,
		gcCycles:   ms.NumGC,
		gcPauseNs:  ms.PauseTotalNs,
		cpuNs:      ru.Utime.Nano() + ru.Stime.Nano(),
		fs:         fs.snapshot(),
	}
}

// peakRSSMB is the process's resident-set high-water mark.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// layerSnapshot holds the program's own counters, read through its
// existing public accessors before and after the window of a traced run.
type layerSnapshot struct {
	core                   core.StatsSnapshot
	perf                   lsm.Perf // summed over the instances
	blockHits, blockMisses int64
	l0Files                int
	spans                  aggSnapshot
	info                   map[string]string // INFO over the wire; wire-pipeline only
}

func (h *harness) takeLayers(withInfo bool) (*layerSnapshot, error) {
	s := &layerSnapshot{core: h.store.StatsSnapshot(), spans: h.tr.snapshot()}
	for _, db := range h.dbs {
		p := db.Perf()
		s.perf.Writes += p.Writes
		s.perf.WALTime += p.WALTime
		s.perf.WALLockTime += p.WALLockTime
		s.perf.MemTime += p.MemTime
		s.perf.StallTime += p.StallTime
		s.perf.SlowdownTime += p.SlowdownTime
		s.perf.FlushBytes += p.FlushBytes
		s.perf.CompactRead += p.CompactRead
		s.perf.CompactWrite += p.CompactWrite
		s.perf.Compactions += p.Compactions
		s.perf.Flushes += p.Flushes
		s.perf.GetCount += p.GetCount
		s.perf.BloomSkips += p.BloomSkips
		s.perf.TableProbes += p.TableProbes
		s.perf.WriteGroupIOs += p.WriteGroupIOs
		hits, misses := db.BlockCacheStats()
		s.blockHits += hits
		s.blockMisses += misses
		s.l0Files += db.Metrics().LevelFiles[0]
	}
	if withInfo {
		rc, err := dialRESP(h.addr)
		if err != nil {
			return nil, err
		}
		defer rc.close()
		if s.info, err = rc.info(); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// repResult is one repetition: set-up, the timed window, the audit.
type repResult struct {
	setupS float64
	// main is the timed window (the pipelined phase on wire-pipeline);
	// paced is wire-pipeline's open-loop phase.
	main, paced phaseResult
	before      procSnapshot
	after       procSnapshot
	// Whole-run accounting, from the opening of the store to the end of the
	// window: bytes written to the filesystem and user bytes accepted.
	fsWritten, userBytes int64
	// spaceAmp is the mean over the window of bytes on the filesystem per
	// live user byte.
	spaceAmp float64

	attempted, failed int64
	firstErr          error

	// Traced runs only.
	layersBefore, layersAfter *layerSnapshot
	falls                     *waterfallResult
}

func (r *repResult) count(p *phaseResult) {
	r.attempted += p.ops()
	r.failed += p.res.failed
	if r.firstErr == nil {
		r.firstErr = p.res.firstErr
	}
}

// runRep opens a fresh store, sets the workload up, runs its window for
// about window, audits and closes. With a tracer the decorators are in
// place and the concurrency-1 waterfall runs after the window.
func runRep(w *workload, seed uint64, rep int, window time.Duration, tr *tracer) (res *repResult, err error) {
	m := w.mix() // the load generator's tables are not part of set-up
	repSeed := splitmix64(seed ^ uint64(rep)<<32)

	// Start every repetition from a collected heap, so peak memory does not
	// depend on what the previous repetition left behind.
	runtime.GC()
	debug.FreeOSMemory()

	res = &repResult{}
	t0 := nowNs()
	h, err := openHarness(w.keys, w.hotCache, tr)
	if err != nil {
		return nil, err
	}
	defer func() {
		if cerr := h.close(); cerr != nil && err == nil {
			err = fmt.Errorf("close: %w", cerr)
		}
	}()
	if w.driver == drivePipe || tr != nil {
		if err := h.serve(); err != nil {
			return nil, err
		}
	}
	if w.preload {
		if err := h.preload(repSeed); err != nil {
			return nil, err
		}
		res.attempted += int64(w.keys)
	}
	warm, err := h.runPhase(w.driver, m, repSeed, 'w', budget{ops: w.warmupOps})
	if err != nil {
		return nil, err
	}
	res.count(&warm)
	runtime.GC() // the window starts from a collected heap
	res.setupS = float64(nowNs()-t0) / 1e9

	mainDur := window
	if w.driver == drivePipe {
		mainDur = time.Duration(float64(window) * (1 - pacedShare))
	}
	if tr != nil {
		if res.layersBefore, err = h.takeLayers(w.driver == drivePipe); err != nil {
			return nil, err
		}
	}
	sampler := h.sampleSpace()
	res.before = takeProc(h.fs)
	run := func() { res.main, err = h.runPhase(w.driver, m, repSeed, 'm', budget{dur: mainDur}) }
	if tr != nil {
		// The first spans of the loaded window are kept as a sample; the
		// totals per kind cover all of it.
		tr.section("load", false, loadSampleSpans, run)
	} else {
		run()
	}
	if err != nil {
		return nil, err
	}
	res.after = takeProc(h.fs)
	if res.spaceAmp, err = sampler.stop(); err != nil {
		return nil, err
	}
	if tr != nil {
		if res.layersAfter, err = h.takeLayers(w.driver == drivePipe); err != nil {
			return nil, err
		}
	}
	res.count(&res.main)

	_, _, _, res.fsWritten, _ = res.after.fs.total()
	for i := range h.vs.issued {
		res.userBytes += int64(h.vs.issued[i].Load()) * userBytesPerPut
	}

	if w.driver == drivePipe {
		res.paced, err = h.runPhase(drivePaced, m, repSeed, 'o', budget{dur: window - mainDur})
		if err != nil {
			return nil, err
		}
		res.count(&res.paced)
	}

	// The waterfall comes after the window, on the settled tree, so that the
	// traced window starts from the same state as an untraced one.
	if tr != nil {
		if err := h.settle(); err != nil {
			return nil, err
		}
		if res.falls, err = h.runWaterfall(repSeed, res); err != nil {
			return nil, err
		}
	}

	attempted, failed, first := h.audit(repSeed, auditKeys)
	res.attempted += attempted
	res.failed += failed
	if res.firstErr == nil {
		res.firstErr = first
	}
	return res, nil
}

// endToEnd derives the repetition's end-to-end metrics, all but
// rss_peak_mb, which belongs to the process.
func (r *repResult) endToEnd() map[string]float64 {
	ops := float64(r.main.ops())
	all := r.main.res.read
	all.merge(&r.main.res.write)
	return map[string]float64{
		"setup_s":            r.setupS,
		"ops_per_s":          ops / (float64(r.main.elapsedNs) / 1e9),
		"op_p50_us":          all.quantile(0.50) / 1e3,
		"allocs_per_op":      float64(r.after.mallocs-r.before.mallocs) / ops,
		"alloc_bytes_per_op": float64(r.after.allocBytes-r.before.allocBytes) / ops,
		"cpu_us_per_op":      float64(r.after.cpuNs-r.before.cpuNs) / 1e3 / ops,
		"write_amp":          float64(r.fsWritten) / float64(r.userBytes),
		"space_amp":          r.spaceAmp,
	}
}

// clientSplit derives the tail and per-operation-type latencies of an
// untraced repetition. A type the workload does not issue reports 0.
func (r *repResult) clientSplit() map[string]float64 {
	all := r.main.res.read
	all.merge(&r.main.res.write)
	out := map[string]float64{
		"client.op_p99_us":    all.quantile(0.99) / 1e3,
		"client.read_p50_us":  r.main.res.read.quantile(0.50) / 1e3,
		"client.read_p99_us":  r.main.res.read.quantile(0.99) / 1e3,
		"client.write_p50_us": r.main.res.write.quantile(0.50) / 1e3,
		"client.write_p99_us": r.main.res.write.quantile(0.99) / 1e3,
		"client.paced_p50_us": 0,
		"client.paced_p99_us": 0,
		"loadgen.late_ratio":  0,
	}
	if r.paced.scheduled > 0 {
		paced := r.paced.res.read
		paced.merge(&r.paced.res.write)
		out["client.paced_p50_us"] = paced.quantile(0.50) / 1e3
		out["client.paced_p99_us"] = paced.quantile(0.99) / 1e3
		out["loadgen.late_ratio"] = float64(r.paced.late) / float64(r.paced.scheduled)
	}
	return out
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func infoDelta(before, after map[string]string, key string) float64 {
	a, _ := strconv.ParseFloat(after[key], 64)
	b, _ := strconv.ParseFloat(before[key], 64)
	return a - b
}

// perLayer derives the per-layer metrics of a traced repetition from the
// program's counters around the window, the decorators' totals, and the
// concurrency-1 waterfall. A metric that has no meaning on the workload
// reports 0.
func (r *repResult) perLayer() map[string]float64 {
	b, a := r.layersBefore, r.layersAfter
	ops := float64(r.main.ops())
	gets := float64(r.main.res.read.n)
	puts := float64(r.main.res.write.n)
	sp := a.spans.sub(b.spans)
	ca, cb := a.core.Aggregate, b.core.Aggregate
	coreOps := float64(ca.Ops - cb.Ops)

	// core
	var maxW, sumW float64
	for i := range a.core.PerWorker {
		d := float64(a.core.PerWorker[i].Ops - b.core.PerWorker[i].Ops)
		sumW += d
		if d > maxW {
			maxW = d
		}
	}
	engineWaitNs := sp[spEngineGet].weighted + sp[spEngineMultiGet].weighted + sp[spEngineWrite].weighted
	clientNs := r.main.res.read.sum + r.main.res.write.sum
	out := map[string]float64{
		"core.avg_batch":            ratio(coreOps, float64(ca.Batches-cb.Batches)),
		"core.batched_op_ratio":     ratio(float64(ca.BatchedOps-cb.BatchedOps), coreOps),
		"core.queue_wait_us_per_op": ratio(float64(ca.QueueWaitUs-cb.QueueWaitUs), coreOps),
		"core.queue_high_water":     float64(ca.QueueHighWater),
		"core.overhead_us_per_op":   ratio(float64(clientNs-engineWaitNs)/1e3, ops),
		"core.worker_imbalance":     ratio(maxW, sumW/float64(len(a.core.PerWorker))),
		"core.rejected":             float64(ca.Rejected - cb.Rejected),
		"core.expired":              float64(ca.Expired - cb.Expired),
	}

	// hotcache
	hits := float64(a.core.CacheHits + a.core.CacheNegHits - b.core.CacheHits - b.core.CacheNegHits)
	out["hotcache.hit_ratio"] = ratio(hits, hits+float64(a.core.CacheMisses-b.core.CacheMisses))
	out["hotcache.fills"] = float64(a.core.CacheFills - b.core.CacheFills)
	out["hotcache.evictions"] = float64(a.core.CacheEvictions - b.core.CacheEvictions)
	out["hotcache.invalidations"] = float64(a.core.CacheInvalidations - b.core.CacheInvalidations)
	out["hotcache.bytes"] = float64(a.core.CacheBytes)

	// lsm, write side
	// Perf.Writes counts written keys; the decorator counts the calls.
	writes := float64(sp[spEngineWrite].calls)
	out["lsm.write_calls"] = writes
	out["lsm.ops_per_write"] = ratio(float64(a.perf.Writes-b.perf.Writes), writes)
	out["lsm.wal_us_per_write"] = ratio(float64(a.perf.WALTime-b.perf.WALTime)/1e3, writes)
	out["lsm.wal_lock_us_per_write"] = ratio(float64(a.perf.WALLockTime-b.perf.WALLockTime)/1e3, writes)
	out["lsm.mem_us_per_write"] = ratio(float64(a.perf.MemTime-b.perf.MemTime)/1e3, writes)
	out["lsm.wal_ios_per_write"] = ratio(float64(a.perf.WriteGroupIOs-b.perf.WriteGroupIOs), writes)
	out["lsm.stall_s"] = (a.perf.StallTime - b.perf.StallTime).Seconds()
	out["lsm.slowdown_s"] = (a.perf.SlowdownTime - b.perf.SlowdownTime).Seconds()
	out["lsm.flushes"] = float64(a.perf.Flushes - b.perf.Flushes)
	out["lsm.compactions"] = float64(a.perf.Compactions - b.perf.Compactions)
	out["lsm.flush_bytes"] = float64(a.perf.FlushBytes - b.perf.FlushBytes)
	out["lsm.compact_read_bytes"] = float64(a.perf.CompactRead - b.perf.CompactRead)
	out["lsm.compact_write_bytes"] = float64(a.perf.CompactWrite - b.perf.CompactWrite)
	out["lsm.l0_files_end"] = float64(a.l0Files)

	// lsm, read side
	engGets := float64(a.perf.GetCount - b.perf.GetCount)
	probes := float64(a.perf.TableProbes - b.perf.TableProbes)
	skips := float64(a.perf.BloomSkips - b.perf.BloomSkips)
	out["lsm.get_calls"] = float64(sp[spEngineGet].calls)
	out["lsm.multiget_calls"] = float64(sp[spEngineMultiGet].calls)
	out["lsm.keys_per_multiget"] = ratio(float64(sp[spEngineMultiGet].items), float64(sp[spEngineMultiGet].calls))
	out["lsm.get_busy_s"] = float64(sp[spEngineGet].ns+sp[spEngineMultiGet].ns) / 1e9
	out["lsm.table_probes_per_get"] = ratio(probes, engGets)
	out["lsm.bloom_skip_ratio"] = ratio(skips, skips+probes)

	// block cache
	bh, bm := float64(a.blockHits-b.blockHits), float64(a.blockMisses-b.blockMisses)
	out["cache.hit_ratio"] = ratio(bh, bh+bm)
	out["cache.misses_per_get"] = ratio(bm, engGets)

	// vfs
	fs := r.after.fs.sub(r.before.fs)
	readCalls, readBytes, writeCalls, writeBytes, syncs := fs.total()
	out["vfs.read_calls_per_get"] = ratio(float64(readCalls), gets)
	out["vfs.read_bytes"] = float64(readBytes)
	out["vfs.write_calls"] = float64(writeCalls)
	out["vfs.write_bytes"] = float64(writeBytes)
	out["vfs.avg_write_bytes"] = ratio(float64(writeBytes), float64(writeCalls))
	out["vfs.wal_bytes"] = float64(fs[classWAL].writeBytes)
	out["vfs.sst_bytes"] = float64(fs[classSST].writeBytes)
	out["vfs.syncs"] = float64(syncs)
	out["vfs.busy_s"] = float64(sp[spVfsReadAt].ns+sp[spVfsWrite].ns+sp[spVfsSync].ns) / 1e9
	out["vfs.window_write_amp"] = ratio(float64(writeBytes), puts*userBytesPerPut)

	// server, from INFO over the wire
	out["server.cmds_per_pipeline"] = ratio(infoDelta(b.info, a.info, "total_commands_processed"),
		infoDelta(b.info, a.info, "pipelines_processed"))
	out["server.coalesced_get_ratio"] = ratio(infoDelta(b.info, a.info, "coalesced_get_ops"), gets)
	out["server.coalesced_set_ratio"] = ratio(infoDelta(b.info, a.info, "coalesced_set_ops"), puts)
	out["server.loadshed"] = infoDelta(b.info, a.info, "loadshed_replies")
	out["server.timeouts"] = infoDelta(b.info, a.info, "timeout_replies")

	// runtime
	out["runtime.gc_cycles"] = float64(r.after.gcCycles - r.before.gcCycles)
	out["runtime.gc_pause_total_ms"] = float64(r.after.gcPauseNs-r.before.gcPauseNs) / 1e6

	for k, v := range r.falls.metrics() {
		out[k] = v
	}
	return out
}

// ---------------------------------------------------------------------------
// Waterfall: where one request's time goes at concurrency 1
// ---------------------------------------------------------------------------

// waterfallResult holds, per access path and operation type, one opCost
// per request.
type waterfallResult struct {
	wireGet, wireSet, coreGet, coreSet []opCost
}

// runWaterfall issues waterfallOps GETs and SETs one at a time, first
// through the wire, then through core.Store directly. Spans then nest
// strictly in time, so parent = enclosing span.
func (h *harness) runWaterfall(seed uint64, res *repResult) (*waterfallResult, error) {
	rc, err := dialRESP(h.addr)
	if err != nil {
		return nil, err
	}
	defer rc.close()
	out := &waterfallResult{}
	sections := []struct {
		name  string
		conn  kvConn
		write bool
		into  *[]opCost
	}{
		{"wire.get", rc, false, &out.wireGet},
		{"wire.set", rc, true, &out.wireSet},
		{"core.get", coreConn{h.store}, false, &out.coreGet},
		{"core.set", coreConn{h.store}, true, &out.coreSet},
	}
	for i, sec := range sections {
		r := newRNG(seed, 'f', uint64(i))
		cl := &syncClient{conn: sec.conn, vs: h.vs, tr: h.tr}
		h.tr.section(sec.name, true, waterfallSpans, func() {
			for n := 0; n < waterfallOps; n++ {
				id := r.intn(h.keys)
				if sec.write {
					id = ownedBy(id, 0)
				} else {
					for h.vs.acked[id].Load() == 0 { // read only keys that exist
						id = r.intn(h.keys)
					}
				}
				cl.do(id, sec.write, 0)
			}
		})
		last := h.tr.sections[len(h.tr.sections)-1]
		*sec.into = waterfall(h.tr.spans[last.lo:last.hi])
		p := phaseResult{res: cl.res}
		res.count(&p)
	}
	return out, nil
}

func medianOf(ops []opCost, f func(opCost) int64) float64 {
	if len(ops) == 0 {
		return 0
	}
	v := make([]int64, len(ops))
	for i, op := range ops {
		v[i] = f(op)
	}
	sort.Slice(v, func(i, j int) bool { return v[i] < v[j] })
	return float64(quantileOfSorted(v, 0.5)) / 1e3
}

// metrics reports the waterfall in microseconds: each layer's median self
// time, the wire medians they should add up to, and what is left over.
func (f *waterfallResult) metrics() map[string]float64 {
	total := func(o opCost) int64 { return o.total }
	coreSelf := func(o opCost) int64 { return o.total - o.engine }
	lsmSelf := func(o opCost) int64 { return o.engine - o.fs }
	vfs := func(o opCost) int64 { return o.fs }
	out := make(map[string]float64)
	for _, x := range []struct {
		op         string
		wire, core []opCost
		coreName   string
		lsmName    string
		vfsName    string
	}{
		{"get", f.wireGet, f.coreGet, "core.get_self_us", "lsm.get_self_us", "vfs.read_us_per_get"},
		{"set", f.wireSet, f.coreSet, "core.put_self_us", "lsm.write_self_us", "vfs.write_us_per_put"},
	} {
		wire, direct := medianOf(x.wire, total), medianOf(x.core, total)
		server := wire - direct
		cs, ls, vs := medianOf(x.core, coreSelf), medianOf(x.core, lsmSelf), medianOf(x.core, vfs)
		out["trace.wire_"+x.op+"_us"] = wire
		out["server."+x.op+"_self_us"] = server
		out[x.coreName] = cs
		out[x.lsmName] = ls
		out[x.vfsName] = vs
		out["trace."+x.op+"_residual_ratio"] = ratio(wire-(server+cs+ls+vs), wire)
	}
	return out
}

// writeTrace writes the captured spans to out/trace-<workload>.jsonl next
// to the benchmark's sources.
func writeTrace(tr *tracer, dir, workload string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := dir + "/trace-" + workload + ".jsonl"
	return path, tr.writeJSONL(path)
}
