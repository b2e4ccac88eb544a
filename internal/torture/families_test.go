package torture

import (
	"fmt"
	"time"

	"p2kvs/internal/btreekv"
	"p2kvs/internal/core"
	"p2kvs/internal/kv"
	"p2kvs/internal/kvell"
	"p2kvs/internal/lsm"
	"p2kvs/internal/vfs"
	"p2kvs/internal/wal"
)

// family is how every torture arm opens one engine of a family and what it
// may do to it. The arms differ in which families they take (pick) and in
// whether they drive the engine bare (open) or under a core.Store (factory).
type family struct {
	name string
	// open opens the engine at dir on fs, small enough that a few hundred
	// writes reach every maintenance path, and with acked == durable where
	// the engine has a journal — the property the shadow model checks.
	// filter is §4.5's recovery filter; only the lsm engines use it.
	open func(fs vfs.FS, dir string, filter func(uint64) bool) (kv.Engine, error)
	// menu is armed and disarmed in windows during a run: the faults this
	// family is built to survive.
	menu []vfs.Rule
	// crash: acknowledged writes survive MemFS.Crash/Restart.
	crash bool
}

func lsmOpen(preset func(vfs.FS) lsm.Options) func(vfs.FS, string, func(uint64) bool) (kv.Engine, error) {
	return func(fs vfs.FS, dir string, filter func(uint64) bool) (kv.Engine, error) {
		o := preset(fs)
		o.MemTableSize = 16 << 10
		o.BaseLevelSize = 64 << 10
		o.TargetFileSize = 16 << 10
		o.WALSync = wal.PolicyCommit
		o.BgMaxRetries = 3
		o.BgBaseBackoff = time.Millisecond
		o.BgMaxBackoff = 4 * time.Millisecond
		return lsm.OpenWith(dir, o, lsm.OpenOptions{RecoverFilter: filter})
	}
}

// lsmMenu is the full fault menu: commit-sync failures, torn writes
// (WAL tails, SST builds, MANIFEST records), file-creation failures
// (flush outputs, WAL/MANIFEST rotation) and latency spikes.
var lsmMenu = []vfs.Rule{
	{Op: vfs.OpSync, Path: ".log", Prob: 0.05},
	{Op: vfs.OpWrite, Prob: 0.02, TornWrite: true},
	{Op: vfs.OpCreate, Prob: 0.02},
	{Op: vfs.OpAny, Prob: 0.05, DelayOnly: true, Delay: 200 * time.Microsecond},
}

// parallelCompaction tightens the triggers and widens the compaction pool
// so the run keeps several compactions of disjoint ranges in flight, with
// subcompactions splitting the merges — concurrent version installs under
// fault injection and crash cycles.
func parallelCompaction(fs vfs.FS) lsm.Options {
	o := lsm.RocksDBOptions(fs)
	o.MaxBackgroundCompactions = 3
	o.MaxSubCompactions = 2
	o.L0CompactionTrigger = 2
	o.L0SlowdownTrigger = 4
	o.L0StallTrigger = 8
	return o
}

var families = []family{
	{name: "lsm-rocksdb", open: lsmOpen(lsm.RocksDBOptions), menu: lsmMenu, crash: true},
	{name: "lsm-parallel", open: lsmOpen(parallelCompaction), menu: lsmMenu, crash: true},
	{name: "lsm-leveldb", open: lsmOpen(lsm.LevelDBOptions), menu: lsmMenu, crash: true},
	{name: "lsm-pebblesdb", open: lsmOpen(lsm.PebblesDBOptions), menu: lsmMenu, crash: true},
	{
		name: "btreekv",
		open: func(fs vfs.FS, dir string, _ func(uint64) bool) (kv.Engine, error) {
			return btreekv.Open(dir, btreekv.Options{FS: fs, WALSync: wal.PolicyCommit, CheckpointBytes: 8 << 10})
		},
		// Journal-sync failures taint the log and force the engine through
		// its checkpoint-based self-heal. No torn writes: the engine has no
		// retry machinery for checkpoint IO.
		menu: []vfs.Rule{
			{Op: vfs.OpSync, Prob: 0.05},
			{Op: vfs.OpAny, Prob: 0.05, DelayOnly: true, Delay: 200 * time.Microsecond},
		},
		crash: true,
	},
	{
		name: "kvell",
		open: func(fs vfs.FS, dir string, _ func(uint64) bool) (kv.Engine, error) {
			return kvell.Open(dir, kvell.Options{FS: fs, Workers: 2})
		},
		// Clean write errors only: KVell updates slots in place with no log,
		// so its contract gives no crash guarantee (no crash cycles) and a
		// torn in-place write is unrecoverable by design. Its disk-full
		// episodes come from slab-tail extension, so the disk-full arm writes
		// fresh keys (in-place updates are free on a quota'd device).
		menu: []vfs.Rule{
			{Op: vfs.OpWrite, Prob: 0.05},
			{Op: vfs.OpAny, Prob: 0.05, DelayOnly: true, Delay: 200 * time.Microsecond},
		},
	},
}

// pick returns the named families, in table order.
func pick(names ...string) []family {
	var out []family
	for _, f := range families {
		for _, n := range names {
			if f.name == n {
				out = append(out, f)
			}
		}
	}
	return out
}

// factory opens the family's engines as the instances of a core.Store
// rooted at root on fs.
func (f family) factory(fs vfs.FS, root string) core.EngineFactory {
	return func(id int, filter func(uint64) bool) (kv.Engine, error) {
		return f.open(fs, fmt.Sprintf("%s/inst-%02d", root, id), filter)
	}
}
