package bench

import (
	"fmt"
	"time"

	"p2kvs/internal/btreekv"
	"p2kvs/internal/core"
	"p2kvs/internal/device"
	"p2kvs/internal/kv"
	"p2kvs/internal/lsm"
	"p2kvs/internal/vfs"
)

// runFig22 reproduces Figure 22: p2KVS over LevelDB instances vs plain
// LevelDB at matching thread counts, random write and random read.
// Expected shape: LevelDB's own write throughput barely moves with
// threads (single writer path); p2KVS-N scales both writes and reads.
func runFig22(e Env) (*Table, error) {
	return runPortability(e, "Figure 22: p2KVS on LevelDB (simulated QPS)",
		func(fs vfs.FS, dir string) (kvStore, error) {
			return openLSM(fs, dir, lsm.LevelDBOptions)
		},
		func(fs vfs.FS, workers int) (kvStore, error) {
			return openP2(fs, "p2", workers, true, lsm.LevelDBOptions)
		})
}

// runFig23 reproduces Figure 23: p2KVS over WiredTiger-style instances
// vs the plain engine. Expected shape: the single instance serializes
// writers on the store latch; p2KVS-N shards the latch away. OBM-write
// is disabled automatically (no batch capability), per §4.6.
func runFig23(e Env) (*Table, error) {
	return runPortability(e, "Figure 23: p2KVS on WiredTiger (simulated QPS)",
		func(fs vfs.FS, dir string) (kvStore, error) {
			return btreekv.Open(dir, wtOpts(fs))
		},
		func(fs vfs.FS, workers int) (kvStore, error) {
			opts := core.DefaultOptions(func(id int, _ func(uint64) bool) (kv.Engine, error) {
				return btreekv.Open(fmt.Sprintf("p2/wt-%02d", id), wtOpts(fs))
			})
			opts.Workers = workers
			opts.Direct = false // the paper's design, as openP2
			// Cross-partition preload batches need the txn log even
			// though btreekv can't tag GSNs (no rollback support, §4.6).
			opts.TxnFS = fs
			opts.TxnDir = "p2/txn"
			return core.Open(opts)
		})
}

// wtOpts builds WiredTiger-style options with the scaled software-path
// costs (~3us per update under the latch, ~2us per read).
func wtOpts(fs vfs.FS) btreekv.Options {
	s := simScale(fs)
	return btreekv.Options{
		FS: fs, CheckpointBytes: 1 << 20,
		PerUpdateCost: time.Duration(3000 * s),
		PerReadCost:   time.Duration(2000 * s),
	}
}

func runPortability(e Env, title string,
	openSingle func(fs vfs.FS, dir string) (kvStore, error),
	openSharded func(fs vfs.FS, workers int) (kvStore, error)) (*Table, error) {
	tbl := NewTable(title,
		"threads", "engine write", "p2KVS write", "engine read", "p2KVS read")
	for _, threads := range ends(e, 1, 2, 4, 8, 16) {
		row := []interface{}{threads}
		for _, mode := range []string{"write", "read"} {
			for _, sharded := range []bool{false, true} {
				preload := 0
				if mode == "read" {
					preload = e.ValueSize
				}
				s, scale, err := openOn(e, device.NVMe, preload, func(fs vfs.FS) (kvStore, error) {
					if sharded {
						return openSharded(fs, threads)
					}
					return openSingle(fs, "db")
				})
				if err != nil {
					return nil, err
				}
				choosers := perThreadChoosers("uniform", threads, e.Keys)
				res, err := e.measure(threads, scale, func(tid, _ int) error {
					if mode == "read" {
						return get(s, choosers[tid].Next())
					}
					return put(s, choosers[tid].Next(), e.ValueSize)
				})
				s.Close()
				if err != nil {
					return nil, err
				}
				row = append(row, res.SimQPS)
			}
		}
		tbl.Add(row...)
	}
	return tbl, nil
}
