package bench

import (
	"fmt"
	"time"

	"p2kvs/internal/device"
	"p2kvs/internal/kv"
	"p2kvs/internal/loadgen"
	"p2kvs/internal/lsm"
	"p2kvs/internal/vfs"
)

// runFig1 reproduces Figure 1: RocksDB throughput for the five db_bench
// operations on HDD, SATA SSD and NVMe SSD, with 1 and 8 user threads.
// The expected shape: reads improve by orders of magnitude from HDD to
// NVMe; writes barely move; 8 threads add far less than 8x.
func runFig1(e Env) (*Table, error) {
	kinds := []string{"fillseq", "fillrandom", "updaterandom", "readseq", "readrandom"}
	tbl := NewTable("Figure 1: RocksDB QPS across devices (simulated), 128B KVs",
		append([]string{"device", "threads"}, kinds...)...)
	type row struct {
		prof    device.Profile
		threads int
	}
	var rows []row
	for _, prof := range []device.Profile{device.HDD, device.SATA, device.NVMe} {
		for _, threads := range []int{1, 8} {
			rows = append(rows, row{prof, threads})
		}
	}
	for _, r := range ends(e, rows...) {
		cells := []interface{}{r.prof.Name, r.threads}
		for _, kind := range kinds {
			qps, err := fig1Cell(e, r.prof, r.threads, loadgen.MustLookup(kind))
			if err != nil {
				return nil, err
			}
			cells = append(cells, qps)
		}
		tbl.Add(cells...)
	}
	return tbl, nil
}

func fig1Cell(e Env, prof device.Profile, threads int, mix loadgen.Spec) (float64, error) {
	preload := 0
	if mix.Preload {
		preload = e.ValueSize
	}
	db, scale, err := openOn(e, prof, preload, func(fs vfs.FS) (*lsm.DB, error) { return openRocks(fs, "db") })
	if err != nil {
		return 0, err
	}
	defer db.Close()
	choosers := perThreadChoosers(mix.Dist, threads, e.Keys)
	// HDD random IO is 8ms*scale real per op: loosen the minimum.
	if prof.Name == "hdd" {
		e.MinOps = 10
	}
	res, err := e.measure(threads, scale, func(tid, i int) error {
		if mix.Read == 1 {
			return get(db, choosers[tid].Next())
		}
		return put(db, choosers[tid].Next(), e.ValueSize)
	})
	if err != nil {
		return 0, err
	}
	return res.SimQPS, nil
}

// runFig4 reproduces Figure 4: a single user thread inserting
// continuously; the device bandwidth it sustains versus the device's
// capability, for 128B and 1KB values, sequential and random. The
// expected shape: small values leave most of the bandwidth idle (the
// foreground path, not the device, is the bottleneck); 1KB random writes
// drive visible compaction traffic.
func runFig4(e Env) (*Table, error) {
	tbl := NewTable("Figure 4: single-writer bandwidth vs device capability (NVMe)",
		"value", "pattern", "simQPS", "user MB/s", "total MB/s (incl. flush+compaction)", "bw util %")
	for _, vs := range []int{128, 1024} {
		for _, kind := range []string{"fillseq", "fillrandom"} {
			fs, scale := newDevFS(device.NVMe)
			db, err := openRocks(fs, "db")
			if err != nil {
				return nil, err
			}
			ch := perThreadChoosers(loadgen.MustLookup(kind).Dist, 1, e.Keys*4)[0]
			res, err := e.measure(1, scale, func(_, _ int) error {
				return put(db, ch.Next(), vs)
			})
			db.Close()
			if err != nil {
				return nil, err
			}
			st := fs.Device().Stats()
			simSec := res.Wall.Seconds() / scale
			userMBps := float64(res.Ops) * float64(vs+16) / simSec / 1e6
			totalMBps := float64(st.WrittenBytes) / simSec / 1e6
			tbl.Add(fmt.Sprintf("%dB", vs), kind, res.SimQPS, userMBps, totalMBps,
				100*writeUtilization(st, device.NVMe, simSec))
		}
	}
	return tbl, nil
}

// runFig5 reproduces Figure 5: random-write throughput scaling with user
// threads for a single shared RocksDB instance versus one instance per
// thread (multi-instance), plus the single-instance device bandwidth and
// the breakdown-relevant stall behaviour. Expected shape: single-instance
// scales poorly (group-logging serialization); multi-instance scales
// further and peaks once device parallelism saturates.
func runFig5(e Env) (*Table, error) {
	tbl := NewTable("Figure 5: concurrent random writes (NVMe, 128B)",
		"threads", "single-inst QPS", "multi-inst QPS", "single bw MB/s", "single bw util %")
	for _, threads := range ends(e, 1, 2, 4, 8, 16, 32) {
		// Single shared instance.
		fs, scale := newDevFS(device.NVMe)
		db, err := openRocks(fs, "db")
		if err != nil {
			return nil, err
		}
		choosers := perThreadChoosers("uniform", threads, e.Keys)
		resS, err := e.measure(threads, scale, func(tid, _ int) error {
			return put(db, choosers[tid].Next(), e.ValueSize)
		})
		st := fs.Device().Stats()
		db.Close()
		if err != nil {
			return nil, err
		}
		simSec := resS.Wall.Seconds() / scale

		// Multi-instance: one private instance per thread.
		fsM, scaleM := newDevFS(device.NVMe)
		dbs := make([]*lsm.DB, threads)
		for t := range dbs {
			dbs[t], err = openRocks(fsM, fmt.Sprintf("db-%02d", t))
			if err != nil {
				return nil, err
			}
		}
		choosersM := perThreadChoosers("uniform", threads, e.Keys)
		resM, err := e.measure(threads, scaleM, func(tid, _ int) error {
			return put(dbs[tid], choosersM[tid].Next(), e.ValueSize)
		})
		for _, d := range dbs {
			d.Close()
		}
		if err != nil {
			return nil, err
		}
		tbl.Add(threads, resS.SimQPS, resM.SimQPS,
			float64(st.WrittenBytes)/simSec/1e6,
			100*writeUtilization(st, device.NVMe, simSec))
	}
	return tbl, nil
}

// runFig6 reproduces Figure 6: the write-latency breakdown of the shared
// instance as user threads grow. Expected shape: WAL+MemTable dominate at
// 1 thread; the lock components (group-logging wait/wakeup) take over as
// threads grow.
func runFig6(e Env) (*Table, error) {
	tbl := NewTable("Figure 6: RocksDB write latency breakdown (shared instance, NVMe)",
		"threads", "WAL %", "WAL lock %", "MemTable %", "MemTable lock %", "Others %", "avg lat (sim us)")
	for _, threads := range ends(e, 1, 2, 4, 8, 16, 32) {
		fs, scale := newDevFS(device.NVMe)
		db, err := openRocks(fs, "db")
		if err != nil {
			return nil, err
		}
		choosers := perThreadChoosers("uniform", threads, e.Keys)
		_, err = e.measure(threads, scale, func(tid, _ int) error {
			return put(db, choosers[tid].Next(), e.ValueSize)
		})
		p := db.Perf()
		db.Close()
		if err != nil {
			return nil, err
		}
		total := float64(p.TotalTime)
		if total == 0 {
			total = 1
		}
		pct := func(d time.Duration) float64 { return 100 * float64(d) / total }
		tbl.Add(threads,
			pct(p.WALTime), pct(p.WALLockTime), pct(p.MemTime), pct(p.MemLockTime),
			pct(p.OtherTime()+p.StallTime),
			float64(p.TotalTime.Microseconds())/float64(p.Writes)/scale)
	}
	return tbl, nil
}

// runFig7 reproduces Figure 7: the effect of WriteBatch size on log
// bandwidth and per-KV software overhead (async logging, WAL-only
// engine). Expected shape: bigger batches raise device bandwidth
// utilization and cut per-KV cost.
func runFig7(e Env) (*Table, error) {
	tbl := NewTable("Figure 7: request batching effect on the WAL (WAL-only, NVMe)",
		"batch bytes", "KVs/batch", "sim MB/s", "bw util %", "per-KV cost (sim us)")
	kvSize := e.ValueSize + 16
	for _, batchBytes := range ends(e, 256, 1024, 4096, 16384) {
		perBatch := batchBytes / kvSize
		if perBatch < 1 {
			perBatch = 1
		}
		fs, scale := newDevFS(device.NVMe)
		db, err := openRocks(fs, "db", func(o *lsm.Options) { o.WALOnly = true })
		if err != nil {
			return nil, err
		}
		ch := loadgen.NewUniform(uint64(e.Keys), 1)
		res, err := e.measure(1, scale, func(_, _ int) error {
			return writeBatch(db, ch, perBatch, e.ValueSize)
		})
		st := fs.Device().Stats()
		db.Close()
		if err != nil {
			return nil, err
		}
		simSec := res.Wall.Seconds() / scale
		kvs := res.Ops * int64(perBatch)
		tbl.Add(batchBytes, perBatch,
			float64(st.WrittenBytes)/simSec/1e6,
			100*writeUtilization(st, device.NVMe, simSec),
			simSec*1e6/float64(kvs))
	}
	return tbl, nil
}

// runFig8 reproduces Figure 8: logging-only and memtable-only throughput
// under the single-instance and multi-instance schemes. Expected shapes:
// (a) batching lifts the shared log; per-thread logs scale until device
// parallelism saturates. (b) the memtable path favours multi-instance
// (no shared-structure synchronization) — note that on a single-core
// host the CPU-bound memtable rows compress toward parity; the direction
// (multi >= single) is what carries.
func runFig8(e Env) (*Table, error) {
	tbl := NewTable("Figure 8: WAL-only and MemTable-only scaling (NVMe, 128B)",
		"threads", "log single", "log single+batch", "log multi", "mem single", "mem multi")
	walOnly := func(o *lsm.Options) { o.WALOnly = true }
	// CPU-only path: no device, no WAL; raw wall QPS (scale 1).
	memOnly := func(o *lsm.Options) { o.MemTableOnly = true }
	for _, threads := range ends(e, 1, 2, 4, 8, 16, 32) {
		row := []interface{}{threads}
		for _, c := range []struct {
			prof     device.Profile
			multi    bool
			perBatch int
			mutate   func(*lsm.Options)
		}{
			{device.NVMe, false, 1, walOnly}, {device.NVMe, false, 8, walOnly}, {device.NVMe, true, 1, walOnly},
			{device.Null, false, 1, memOnly}, {device.Null, true, 1, memOnly},
		} {
			qps, err := fig8Cell(e, threads, c.prof, c.multi, c.perBatch, c.mutate)
			if err != nil {
				return nil, err
			}
			row = append(row, qps)
		}
		tbl.Add(row...)
	}
	return tbl, nil
}

// fig8Cell measures `threads` writers committing perBatch-op WriteBatches
// to one shared instance, or (multi) to a private instance each.
func fig8Cell(e Env, threads int, prof device.Profile, multi bool, perBatch int, mutate func(*lsm.Options)) (float64, error) {
	fs, scale := newDevFS(prof)
	dbs := make([]*lsm.DB, 1)
	if multi {
		dbs = make([]*lsm.DB, threads)
	}
	defer func() {
		for _, d := range dbs {
			if d != nil {
				d.Close()
			}
		}
	}()
	for i := range dbs {
		var err error
		if dbs[i], err = openRocks(fs, fmt.Sprintf("db-%02d", i), mutate); err != nil {
			return 0, err
		}
	}
	choosers := perThreadChoosers("uniform", threads, e.Keys)
	res, err := e.measure(threads, scale, func(tid, _ int) error {
		return writeBatch(dbs[tid%len(dbs)], choosers[tid], perBatch, e.ValueSize)
	})
	if err != nil {
		return 0, err
	}
	return res.SimQPS * float64(perBatch), nil
}

// writeBatch commits perBatch codec puts drawn from ch as one WriteBatch.
func writeBatch(db *lsm.DB, ch loadgen.Chooser, perBatch, valueSize int) error {
	var b kv.Batch
	for j := 0; j < perBatch; j++ {
		idx := ch.Next()
		b.Put(loadgen.Key(idx), loadgen.Value(idx, 0, valueSize))
	}
	return db.Write(&b)
}
