package bench

import (
	"fmt"
	"strings"
	"time"

	"p2kvs/internal/device"
	"p2kvs/internal/kvell"
	"p2kvs/internal/loadgen"
	"p2kvs/internal/lsm"
	"p2kvs/internal/vfs"
)

// runYCSB drives one workload phase and returns the simulated QPS.
func runYCSB(e Env, s kvStore, spec loadgen.Spec, threads int, scale float64, valueSize int) (float64, error) {
	frontier := loadgen.NewFrontier(uint64(e.Keys))
	gens := make([]*loadgen.Generator, threads)
	for t := range gens {
		gens[t] = loadgen.NewGenerator(spec, uint64(e.Keys), frontier, int64(t+1))
	}
	res, err := e.measure(threads, scale, func(tid, _ int) error {
		return miss(loadgen.Exec(s, gens[tid].Next(), valueSize, 0, nil))
	})
	if err != nil {
		return 0, err
	}
	return res.SimQPS, nil
}

// ycsbSystem names a system under test and how to open it on a
// filesystem (a free device for the load phase, NVMe for measurement).
type ycsbSystem struct {
	name string
	open func(fs vfs.FS) (kvStore, error)
}

func lsmSystem(name string, preset func(vfs.FS) lsm.Options) ycsbSystem {
	return ycsbSystem{name: name, open: func(fs vfs.FS) (kvStore, error) {
		return openLSM(fs, "db", preset)
	}}
}

func p2System(name string, workers int, obm bool) ycsbSystem {
	return ycsbSystem{name: name, open: func(fs vfs.FS) (kvStore, error) {
		return openP2(fs, "p2", workers, obm, lsm.RocksDBOptions)
	}}
}

// kvellSystem charges KVell's worker path ~1.5us per op (in-memory index
// walk + slab bookkeeping; its IO costs come from the device).
func kvellSystem(name string, workers int) ycsbSystem {
	return ycsbSystem{name: name, open: func(fs vfs.FS) (kvStore, error) {
		return kvell.Open("kvl", kvell.Options{
			FS: fs, Workers: workers, CacheBytes: 8 << 20,
			PerOpCost: time.Duration(1500 * simScale(fs)),
		})
	}}
}

// measureYCSBCell loads the system on a free device (LOAD inserts beyond
// an empty store's frontier instead), reopens it on NVMe and runs the
// workload phase.
func measureYCSBCell(e Env, sys ycsbSystem, spec loadgen.Spec, threads, valueSize int) (float64, error) {
	preload := 0
	if spec.Preload {
		preload = valueSize
	}
	s, scale, err := openOn(e, device.NVMe, preload, sys.open)
	if err != nil {
		return 0, err
	}
	defer s.Close()
	return runYCSB(e, s, spec, threads, scale, valueSize)
}

// ycsbLabel is the paper's name for a ycsb-* row ("LOAD", "A" … "F").
func ycsbLabel(mix string) string { return strings.ToUpper(strings.TrimPrefix(mix, "ycsb-")) }

// runFig16 reproduces Figure 16: YCSB throughput for RocksDB, p2KVS-4
// and p2KVS-8 at 8 and 32 client threads. Expected shape: large p2KVS
// wins on LOAD/A/F, 1-2x on B/C/D, parity on E.
func runFig16(e Env) (*Table, error) {
	tbl := NewTable("Figure 16: YCSB throughput (simulated QPS, NVMe, 128B)",
		"workload", "threads", "RocksDB", "p2KVS-4", "p2KVS-8")
	systems := []ycsbSystem{
		lsmSystem("RocksDB", lsm.RocksDBOptions),
		p2System("p2KVS-4", 4, true),
		p2System("p2KVS-8", 8, true),
	}
	for _, name := range ends(e, loadgen.YCSBOrder...) {
		spec := loadgen.MustLookup(name)
		for _, threads := range []int{8, 32} {
			row := []interface{}{ycsbLabel(name), threads}
			for _, sys := range systems {
				qps, err := measureYCSBCell(e, sys, spec, threads, e.ValueSize)
				if err != nil {
					return nil, err
				}
				row = append(row, qps)
			}
			tbl.Add(row...)
		}
	}
	return tbl, nil
}

// runFig17 reproduces Figure 17: sensitivity to the number of workers
// and to OBM, normalized to single-worker-no-OBM (≈ RocksDB). Expected
// shape: QPS grows with workers; OBM multiplies the win, especially on
// LOAD and C.
func runFig17(e Env) (*Table, error) {
	tbl := NewTable("Figure 17: worker-count and OBM sensitivity (normalized QPS)",
		"workload", "workers", "no OBM", "OBM")
	const threads = 16
	for _, name := range ends(e, "ycsb-load", "ycsb-a", "ycsb-b", "ycsb-c") {
		spec := loadgen.MustLookup(name)
		var baseline float64
		for _, workers := range ends(e, 1, 2, 4, 8) {
			var cells [2]float64
			for i, obm := range []bool{false, true} {
				qps, err := measureYCSBCell(e, p2System("p2", workers, obm), spec, threads, e.ValueSize)
				if err != nil {
					return nil, err
				}
				cells[i] = qps
			}
			if baseline == 0 {
				baseline = cells[0]
			}
			tbl.Add(ycsbLabel(name), workers, cells[0]/baseline, cells[1]/baseline)
		}
	}
	return tbl, nil
}

// runFig18 reproduces Figures 18 and 19: sensitivity to KV size on
// LOAD/A/C (p2KVS-8 speedup over RocksDB per size). Expected shape:
// small KVs benefit most from OBM; at 1KB+ the write-side speedup
// shrinks while read-side benefits persist.
func runFig18(e Env) (*Table, error) {
	tbl := NewTable("Figures 18/19: KV-size sensitivity (p2KVS-8 speedup over RocksDB)",
		"value size", "LOAD", "A", "C")
	const threads = 16
	for _, vs := range ends(e, 64, 128, 1024) {
		row := []interface{}{fmt.Sprintf("%dB", vs)}
		for _, name := range []string{"ycsb-load", "ycsb-a", "ycsb-c"} {
			spec := loadgen.MustLookup(name)
			rocks, err := measureYCSBCell(e, lsmSystem("RocksDB", lsm.RocksDBOptions), spec, threads, vs)
			if err != nil {
				return nil, err
			}
			p2, err := measureYCSBCell(e, p2System("p2KVS-8", 8, true), spec, threads, vs)
			if err != nil {
				return nil, err
			}
			row = append(row, p2/rocks)
		}
		tbl.Add(row...)
	}
	return tbl, nil
}

// runFig20 reproduces Figure 20: KVell-4/8 vs p2KVS-4/8 across YCSB.
// Expected shape: p2KVS wins write-heavy (LOAD/A/F) and scans (E); KVell
// is competitive on point reads (B/C/D) thanks to its in-memory index.
func runFig20(e Env) (*Table, error) {
	tbl := NewTable("Figure 20: KVell vs p2KVS (simulated QPS)",
		"workload", "KVell-4", "KVell-8", "p2KVS-4", "p2KVS-8")
	systems := []ycsbSystem{
		kvellSystem("KVell-4", 4),
		kvellSystem("KVell-8", 8),
		p2System("p2KVS-4", 4, true),
		p2System("p2KVS-8", 8, true),
	}
	const threads = 16
	for _, name := range ends(e, loadgen.YCSBOrder...) {
		spec := loadgen.MustLookup(name)
		row := []interface{}{ycsbLabel(name)}
		for _, sys := range systems {
			qps, err := measureYCSBCell(e, sys, spec, threads, e.ValueSize)
			if err != nil {
				return nil, err
			}
			row = append(row, qps)
		}
		tbl.Add(row...)
	}
	return tbl, nil
}

// runFig21 reproduces Figure 21: hardware utilization of p2KVS-8 vs
// KVell-8 under continuous random writes — device write bandwidth,
// memory, total and per-worker CPU (worker busy time over the window).
// Expected shape: p2KVS sustains much higher device bandwidth (LSM
// aggregates small writes); KVell's memory is dominated by its in-memory
// indexes.
func runFig21(e Env) (*Table, error) {
	tbl := NewTable("Figure 21: hardware utilization under random writes",
		"system", "simQPS", "write MB/s", "mem (MB)", "total CPU (core-%)", "avg per-worker CPU %")

	// p2KVS-8.
	{
		fs, scale := newDevFS(device.NVMe)
		s, err := openP2(fs, "p2", 8, true, lsm.RocksDBOptions)
		if err != nil {
			return nil, err
		}
		res, err := asyncFill(e, s, 16, scale, e.ValueSize)
		if err != nil {
			s.Close()
			return nil, err
		}
		c := cores(time.Duration(s.StatsSnapshot().Aggregate.BusyUs)*time.Microsecond, res)
		var mem int64
		for i := 0; i < 8; i++ {
			m := s.Engine(i).(*lsm.DB).Metrics()
			mem += m.MemTableBytes + m.WALBytes
		}
		s.Close()
		st := fs.Device().Stats()
		simSec := res.Wall.Seconds() / scale
		tbl.Add("p2KVS-8", res.SimQPS, float64(st.WrittenBytes)/simSec/1e6,
			float64(mem)/1e6, 100*c, 100*c/8)
	}
	// KVell-8.
	{
		fs, scale := newDevFS(device.NVMe)
		s, err := kvell.Open("kvl", kvell.Options{
			FS: fs, Workers: 8, CacheBytes: 8 << 20,
			PerOpCost: time.Duration(1500 * simScale(fs)),
		})
		if err != nil {
			return nil, err
		}
		choosers := perThreadChoosers("uniform", 16, e.Keys)
		res, err := e.measure(16, scale, func(tid, _ int) error {
			return put(s, choosers[tid].Next(), e.ValueSize)
		})
		if err != nil {
			s.Close()
			return nil, err
		}
		m := s.Metrics()
		c := cores(time.Duration(m.BusyNs), res)
		s.Close()
		st := fs.Device().Stats()
		simSec := res.Wall.Seconds() / scale
		tbl.Add("KVell-8", res.SimQPS, float64(st.WrittenBytes)/simSec/1e6,
			float64(m.IndexBytes+m.CacheBytes)/1e6, 100*c, 100*c/8)
	}
	return tbl, nil
}
