package bench

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"p2kvs/internal/core"
	"p2kvs/internal/device"
	"p2kvs/internal/histogram"
	"p2kvs/internal/loadgen"
	"p2kvs/internal/lsm"
	"p2kvs/internal/vfs"
)

// asyncFill drives the store's asynchronous write interface from
// `threads` submitters (the paper enables the async interface for peak
// write measurements, §5.1), waiting for all callbacks.
func asyncFill(e Env, s *core.Store, threads int, scale float64, valueSize int) (Res, error) {
	choosers := perThreadChoosers("uniform", threads, e.Keys)
	var pending sync.WaitGroup
	start := time.Now()
	res, err := e.measure(threads, scale, func(tid, _ int) error {
		idx := choosers[tid].Next()
		pending.Add(1)
		return s.PutAsync(loadgen.Key(idx), loadgen.Value(idx, 0, valueSize), func(error) {
			pending.Done()
		})
	})
	// Throughput counts completions, not submissions: the wall clock
	// runs until every callback fired.
	pending.Wait()
	res.Wall = time.Since(start)
	if res.Wall > 0 {
		res.SimQPS = float64(res.Ops) * scale / res.Wall.Seconds()
	}
	return res, err
}

// runFig12 reproduces Figure 12: random-write throughput, IO
// amplification and bandwidth utilization for RocksDB, PebblesDB,
// p2KVS-4 and p2KVS-8 under 16 user threads. Expected shape: p2KVS-8 >
// p2KVS-4 > RocksDB in QPS; p2KVS-8 has the lowest IO amplification
// (wider, shallower tree); p2KVS drives far higher bandwidth.
func runFig12(e Env) (*Table, error) {
	const threads = 16
	tbl := NewTable("Figure 12: random write, 16 user threads (NVMe, 128B)",
		"system", "simQPS", "IO amplification", "bw util %")

	row := func(name string, res Res, st device.Stats, scale float64, userBytes int64) {
		amp := 0.0
		if userBytes > 0 {
			amp = float64(st.WrittenBytes) / float64(userBytes)
		}
		simSec := res.Wall.Seconds() / scale
		tbl.Add(name, res.SimQPS, amp, 100*writeUtilization(st, device.NVMe, simSec))
	}
	for _, single := range []struct {
		name   string
		preset func(vfs.FS) lsm.Options
	}{{"RocksDB", lsm.RocksDBOptions}, {"PebblesDB", lsm.PebblesDBOptions}} {
		fs, scale := newDevFS(device.NVMe)
		db, err := openLSM(fs, "db", single.preset)
		if err != nil {
			return nil, err
		}
		choosers := perThreadChoosers("uniform", threads, e.Keys)
		res, err := e.measure(threads, scale, func(tid, _ int) error {
			return put(db, choosers[tid].Next(), e.ValueSize)
		})
		st, userBytes := fs.Device().Stats(), db.Perf().UserBytes
		db.Close()
		if err != nil {
			return nil, err
		}
		row(single.name, res, st, scale, userBytes)
	}
	for _, w := range []int{4, 8} {
		fs, scale := newDevFS(device.NVMe)
		s, err := openP2(fs, "p2", w, true, lsm.RocksDBOptions)
		if err != nil {
			return nil, err
		}
		res, err := asyncFill(e, s, threads, scale, e.ValueSize)
		var userBytes int64
		for i := 0; i < w; i++ {
			userBytes += s.Engine(i).(*lsm.DB).Perf().UserBytes
		}
		st := fs.Device().Stats()
		s.Close()
		if err != nil {
			return nil, err
		}
		row(fmt.Sprintf("p2KVS-%d", w), res, st, scale, userBytes)
	}
	return tbl, nil
}

// runTable2 reproduces Table 2: memory and (virtual) CPU usage under the
// random-write workload. Memory is the Go heap delta; CPU is busy time over
// the measured window in core-equivalents — the user threads' own puts for
// RocksDB, the workers' WorkerStats.BusyUs for p2KVS.
func runTable2(e Env) (*Table, error) {
	const threads = 16
	tbl := NewTable("Table 2: memory and CPU under random writes",
		"system", "mem (MB)", "CPU (core-%)")

	heapNow := func() float64 {
		var m runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m)
		return float64(m.HeapAlloc) / 1e6
	}

	// RocksDB single instance: user threads each occupy ~a core.
	{
		fs, scale := newDevFS(device.NVMe)
		base := heapNow()
		db, err := openRocks(fs, "db")
		if err != nil {
			return nil, err
		}
		var busy atomic.Int64
		choosers := perThreadChoosers("uniform", threads, e.Keys)
		res, err := e.measure(threads, scale, func(tid, _ int) error {
			start := time.Now()
			err := put(db, choosers[tid].Next(), e.ValueSize)
			busy.Add(int64(time.Since(start)))
			return err
		})
		if err != nil {
			db.Close()
			return nil, err
		}
		mem := heapNow() - base
		db.Close()
		tbl.Add("RocksDB (16 user threads)", mem, 100*cores(time.Duration(busy.Load()), res))
	}
	// p2KVS-4 and p2KVS-8: workers busy, user threads asleep.
	for _, workers := range []int{4, 8} {
		fs, scale := newDevFS(device.NVMe)
		base := heapNow()
		s, err := openP2(fs, "p2", workers, true, lsm.RocksDBOptions)
		if err != nil {
			return nil, err
		}
		res, err := asyncFill(e, s, threads, scale, e.ValueSize)
		if err != nil {
			s.Close()
			return nil, err
		}
		busy := time.Duration(s.StatsSnapshot().Aggregate.BusyUs) * time.Microsecond
		mem := heapNow() - base
		s.Close()
		tbl.Add(fmt.Sprintf("p2KVS-%d", workers), mem, 100*cores(busy, res))
	}
	return tbl, nil
}

// runFig13 reproduces Figure 13: average and p99 latency as a function
// of offered load (open loop) for RocksDB, RocksDB+OBM (p2KVS with one
// worker) and p2KVS-8. Expected shape: all systems track the offered
// rate at low intensity; RocksDB's latency blows up first; p2KVS-8
// sustains several times higher intensity at bounded tails.
func runFig13(e Env) (*Table, error) {
	tbl := NewTable("Figure 13: latency vs request intensity (open loop, NVMe, 128B)",
		"intensity (sim KQPS)", "system", "avg lat (sim ms)", "p99 lat (sim ms)")

	type sys struct {
		name    string
		workers int
		obm     bool
	}
	systems := []sys{{"RocksDB", 1, false}, {"RocksDB+OBM", 1, true}, {"p2KVS-8", 8, true}}
	for _, intensity := range ends(e, 50_000.0, 100_000, 200_000, 400_000) {
		for _, sy := range systems {
			fs, scale := newDevFS(device.NVMe)
			s, err := openP2(fs, "p2", sy.workers, sy.obm, lsm.RocksDBOptions)
			if err != nil {
				return nil, err
			}
			var h histogram.H
			var pending sync.WaitGroup
			ch := loadgen.NewUniform(uint64(e.Keys), 1)
			// Open loop: one pacer submits at the target *simulated*
			// rate, i.e. realRate = intensity/scale, in 5ms ticks.
			realRate := intensity / scale
			tick := 5 * time.Millisecond
			perTick := int(realRate * tick.Seconds())
			if perTick < 1 {
				perTick = 1
			}
			deadline := time.Now().Add(e.Budget)
			overloaded := false
			for time.Now().Before(deadline) {
				tickStart := time.Now()
				for j := 0; j < perTick; j++ {
					idx := ch.Next()
					submitted := time.Now()
					pending.Add(1)
					err := s.PutAsync(loadgen.Key(idx), loadgen.Value(idx, 0, e.ValueSize), func(error) {
						h.Record(time.Since(submitted))
						pending.Done()
					})
					if err != nil {
						pending.Done()
						s.Close()
						return nil, err
					}
				}
				sleep := tick - time.Since(tickStart)
				if sleep > 0 {
					time.Sleep(sleep)
				} else {
					overloaded = true
				}
			}
			pending.Wait()
			s.Close()
			label := sy.name
			if overloaded {
				label += " (saturated)"
			}
			tbl.Add(fmt.Sprintf("%.0f", intensity/1000), label,
				float64(h.Mean().Microseconds())/scale/1000,
				float64(h.Quantile(0.99).Microseconds())/scale/1000)
		}
	}
	return tbl, nil
}

// runFig14 reproduces Figure 14: point-query throughput with and without
// OBM as client threads grow. Expected shape: without OBM p2KVS tracks
// RocksDB; with OBM (multiget batching) p2KVS pulls ahead as concurrency
// rises.
func runFig14(e Env) (*Table, error) {
	tbl := NewTable("Figure 14: GET throughput (NVMe, 128B, preloaded)",
		"threads", "RocksDB", "p2KVS-8 no OBM", "p2KVS-8 OBM")
	for _, threads := range ends(e, 1, 4, 8, 16, 32) {
		row := []interface{}{threads}
		systems := []func(vfs.FS) (kvStore, error){
			func(fs vfs.FS) (kvStore, error) { return openRocks(fs, "db") },
		}
		for _, obm := range []bool{false, true} {
			systems = append(systems, func(fs vfs.FS) (kvStore, error) {
				return openP2(fs, "p2", 8, obm, lsm.RocksDBOptions)
			})
		}
		for _, open := range systems {
			s, scale, err := openOn(e, device.NVMe, e.ValueSize, open)
			if err != nil {
				return nil, err
			}
			choosers := perThreadChoosers("uniform", threads, e.Keys)
			res, err := e.measure(threads, scale, func(tid, _ int) error {
				return get(s, choosers[tid].Next())
			})
			s.Close()
			if err != nil {
				return nil, err
			}
			row = append(row, res.SimQPS)
		}
		tbl.Add(row...)
	}
	return tbl, nil
}

// runFig15 reproduces Figure 15: RANGE and SCAN throughput versus scan
// size, single user thread, p2KVS-8 vs RocksDB. Expected shape: p2KVS
// wins on RANGE (parallel disjoint sub-ranges) and on short SCANs; the
// gap closes at large scan sizes when read amplification saturates the
// device.
func runFig15(e Env) (*Table, error) {
	tbl := NewTable("Figure 15: RANGE / SCAN queries per second vs scan size (1 thread)",
		"scan size", "RocksDB RANGE", "p2KVS RANGE", "RocksDB SCAN", "p2KVS SCAN")
	db, scale, err := openOn(e, device.NVMe, e.ValueSize, func(fs vfs.FS) (*lsm.DB, error) { return openRocks(fs, "db") })
	if err != nil {
		return nil, err
	}
	defer db.Close()
	s, _, err := openOn(e, device.NVMe, e.ValueSize, func(fs vfs.FS) (*core.Store, error) {
		return openP2(fs, "p2", 8, true, lsm.RocksDBOptions)
	})
	if err != nil {
		return nil, err
	}
	defer s.Close()

	for _, size := range ends(e, 10, 100, 1000) {
		ch := loadgen.NewUniform(uint64(e.Keys-size), 7)
		row := []interface{}{size}
		for _, query := range []func(start uint64) error{
			func(start uint64) error { // RocksDB RANGE
				return rocksRangeQuery(db, loadgen.Key(start), loadgen.Key(start+uint64(size)-1))
			},
			func(start uint64) error { // p2KVS RANGE
				_, err := s.Range(loadgen.Key(start), loadgen.Key(start+uint64(size)-1))
				return err
			},
			func(start uint64) error { // RocksDB SCAN: no native Scan, an iterator walk
				return loadgen.Exec(db, loadgen.Op{Type: loadgen.OpScan, KeyIdx: start, ScanLen: size}, 0, 0, nil)
			},
			func(start uint64) error { // p2KVS SCAN
				return loadgen.Exec(s, loadgen.Op{Type: loadgen.OpScan, KeyIdx: start, ScanLen: size}, 0, 0, nil)
			},
		} {
			res, err := e.measure(1, scale, func(_, _ int) error { return query(ch.Next()) })
			if err != nil {
				return nil, err
			}
			row = append(row, res.SimQPS)
		}
		tbl.Add(row...)
	}
	return tbl, nil
}

func rocksRangeQuery(db *lsm.DB, begin, end []byte) error {
	it, err := db.NewIterator()
	if err != nil {
		return err
	}
	defer it.Close()
	for it.Seek(begin); it.Valid() && string(it.Key()) <= string(end); it.Next() {
	}
	return it.Error()
}
