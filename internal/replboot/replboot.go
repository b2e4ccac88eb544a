// Package replboot builds replication-enabled in-memory stores: a fresh
// primary/replica store over a MemFS, and the Config.RestoreStore
// callback the network server's replica manager uses to rebuild its
// serving store from a received full-sync image. The server tests,
// netbench's -cluster mode and the cluster client tests all boot
// in-process nodes through these helpers; the real p2kvs-server binary
// wires the equivalent host-filesystem callback through p2kvs.Restore.
package replboot

import (
	"fmt"

	"p2kvs/internal/checkpoint"
	"p2kvs/internal/core"
	"p2kvs/internal/device"
	"p2kvs/internal/kv"
	"p2kvs/internal/lsm"
	"p2kvs/internal/repl"
	"p2kvs/internal/vfs"
)

// root is the store directory inside each node's private MemFS.
const root = "db"

// Sim makes a booted node's IO pass through its own simulated storage
// device, so per-node throughput is bound by (scaled) device service
// time rather than by shared host CPU — the regime the paper evaluates
// in, and the only one where multi-node scaling is observable on a
// small host. BlockCache optionally clamps the per-instance LSM block
// cache so a read benchmark actually reaches the device instead of
// serving every lookup from DRAM.
type Sim struct {
	Device     *device.Device // nil: direct MemFS access, no IO charges
	BlockCache int64          // >0: per-instance block cache budget override
}

func (s Sim) wrap(fs vfs.FS) vfs.FS {
	if s.Device == nil {
		return fs
	}
	return device.WrapFS(fs, s.Device)
}

func factory(fs vfs.FS, cache int64) core.EngineFactory {
	return func(id int, filter func(uint64) bool) (kv.Engine, error) {
		lo := lsm.RocksDBOptions(fs)
		if cache > 0 {
			lo.BlockCacheSize = cache
		}
		return lsm.OpenWith(fmt.Sprintf("%s/inst-%02d", root, id),
			lo, lsm.OpenOptions{RecoverFilter: filter})
	}
}

func open(fs vfs.FS, workers int, backlog, cache int64) (*core.Store, error) {
	opts := core.DefaultOptions(factory(fs, cache))
	opts.Workers = workers
	opts.TxnFS = fs
	opts.TxnDir = root + "/txn"
	opts.EngineName = "rocksdb"
	opts.ReplLog = repl.NewLog(workers, backlog)
	return core.Open(opts)
}

// MemStore opens a fresh replication-enabled LSM store over a private
// in-memory filesystem, routed through sim's device when it has one.
// backlog <= 0 selects the default budget.
func MemStore(workers int, backlog int64, sim Sim) (*core.Store, error) {
	return open(sim.wrap(vfs.NewMem()), workers, backlog, sim.BlockCache)
}

// MemRestore returns a server.Config.RestoreStore callback: it verifies
// and materializes the full-sync image at srcDir into a fresh in-memory
// filesystem (the old store was already closed by the caller) and opens
// a replication-enabled store from it, adopting the image's worker
// count. The image itself is materialized without IO charges (bootstrap,
// not steady state); recovery reads and all serving IO after the open go
// through sim's device.
func MemRestore(backlog int64, sim Sim) func(srcFS vfs.FS, srcDir string) (*core.Store, error) {
	return func(srcFS vfs.FS, srcDir string) (*core.Store, error) {
		dst := vfs.NewMem()
		place := func(worker int, rel string) string {
			if worker < 0 {
				return root + "/txn/" + rel
			}
			return fmt.Sprintf("%s/inst-%02d/%s", root, worker, rel)
		}
		m, err := checkpoint.Restore(srcFS, srcDir, dst, place)
		if err != nil {
			return nil, err
		}
		return open(sim.wrap(dst), m.Workers, backlog, sim.BlockCache)
	}
}
