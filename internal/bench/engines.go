package bench

import (
	"errors"
	"fmt"
	"time"

	"p2kvs/internal/core"
	"p2kvs/internal/device"
	"p2kvs/internal/kv"
	"p2kvs/internal/loadgen"
	"p2kvs/internal/lsm"
	"p2kvs/internal/vfs"
)

// simScale returns the time scale of the simulated device behind fs, or
// 0 when fs charges nothing (no device, or the null device preloads use).
func simScale(fs vfs.FS) float64 {
	dfs, ok := fs.(*device.FS)
	if !ok || dfs.Device().Profile().Name == "null" {
		return 0
	}
	return scaleFor(dfs.Device().Profile())
}

// applySimCosts attaches the simulated software-path cost model to an
// engine whose files sit behind a simulated device, each cost multiplied by
// the device's time scale: 1us of serialized host CPU per log write
// (syscall + group bookkeeping) plus 6ns per byte (encode/checksum/memcpy,
// ≈ 0.9us per 144B op), so a batched op costs ~2x less software time than a
// solo op, Figure 7's shape; and 2us per lookup. This is the per-request
// foreground cost §3 shows bottlenecking a single instance — without it the
// scaled-time world would make group logging artificially free. Null-device
// (preload) filesystems get no cost.
func applySimCosts(o *lsm.Options, fs vfs.FS) {
	s := simScale(fs)
	o.WALPerRecordCost = time.Duration(1000 * s)
	o.WALPerByteCost = time.Duration(6 * s)
	o.ReadPerOpCost = time.Duration(2000 * s)
}

// benchLSMSizes shrinks the engine's structural budgets so scaled-down
// experiment runs still exercise rotation, flush and compaction.
func benchLSMSizes(o *lsm.Options) {
	o.MemTableSize = 256 << 10
	o.BaseLevelSize = 1 << 20
	o.TargetFileSize = 256 << 10
	// The block cache stands in for the block cache PLUS the OS page
	// cache of the paper's testbed (64 GB RAM): zipfian point reads are
	// largely memory-served (CPU-bound, where multiget amortization
	// pays), while scans and cold uniform reads spill to the device.
	o.BlockCacheSize = 256 << 10
}

// lsmOptions is a preset shrunk to bench sizes with the cost model on.
func lsmOptions(fs vfs.FS, preset func(vfs.FS) lsm.Options) lsm.Options {
	o := preset(fs)
	benchLSMSizes(&o)
	applySimCosts(&o, fs)
	return o
}

func openLSM(fs vfs.FS, dir string, preset func(vfs.FS) lsm.Options, mutate ...func(*lsm.Options)) (*lsm.DB, error) {
	o := lsmOptions(fs, preset)
	for _, m := range mutate {
		m(&o)
	}
	return lsm.Open(dir, o)
}

func openRocks(fs vfs.FS, dir string, mutate ...func(*lsm.Options)) (*lsm.DB, error) {
	return openLSM(fs, dir, lsm.RocksDBOptions, mutate...)
}

// openP2 opens a p2KVS store over LSM instances with the given preset — the
// paper's p2KVS: every request crosses to its worker, one worker = one thread
// on one simulated core (WorkerStats.BusyUs, the engines' per-op cost sleeps).
// The direct rule (core.Options.Direct) is off here and measured by
// ablation-direct-read.
func openP2(fs vfs.FS, dir string, workers int, obm bool, preset func(vfs.FS) lsm.Options, mutate ...func(*core.Options)) (*core.Store, error) {
	opts := core.DefaultOptions(func(id int, filter func(uint64) bool) (kv.Engine, error) {
		return lsm.OpenWith(fmt.Sprintf("%s/inst-%02d", dir, id), lsmOptions(fs, preset), lsm.OpenOptions{RecoverFilter: filter})
	})
	opts.Workers = workers
	opts.OBM = obm
	opts.Direct = false
	opts.TxnFS = fs
	opts.TxnDir = dir + "/txn"
	for _, m := range mutate {
		m(&opts)
	}
	return core.Open(opts)
}

// kvStore is what the shared cell helpers need from a system under test.
type kvStore interface {
	loadgen.KV
	Flush() error
	Close() error
}

// openOn opens a system behind the simulated device prof and returns it
// with the device's time scale. With preloadValueSize > 0 it first opens
// the system on a free (null) device, loads e.Keys keys and closes it,
// so set-up consumes no budget and measurement starts from settled files.
func openOn[S kvStore](e Env, prof device.Profile, preloadValueSize int, open func(vfs.FS) (S, error)) (s S, scale float64, err error) {
	mem := vfs.NewMem()
	if preloadValueSize > 0 {
		l, err := open(device.WrapFS(mem, device.New(device.Null, 1)))
		if err != nil {
			return s, 0, err
		}
		if err := loadgen.Preload(l, e.Keys, preloadValueSize); err != nil {
			l.Close()
			return s, 0, err
		}
		if err := l.Close(); err != nil {
			return s, 0, err
		}
	}
	scale = scaleFor(prof)
	s, err = open(device.WrapFS(mem, device.New(prof, scale)))
	return s, scale, err
}

// put and get are the two point ops nearly every cell measures: key
// index idx with the codec's value; a read miss is an answer.
func put(s loadgen.KV, idx uint64, valueSize int) error {
	return s.Put(loadgen.Key(idx), loadgen.Value(idx, 0, valueSize))
}

func get(s loadgen.KV, idx uint64) error {
	_, err := s.Get(loadgen.Key(idx))
	return miss(err)
}

func miss(err error) error {
	if errors.Is(err, kv.ErrNotFound) {
		return nil
	}
	return err
}

func perThreadChoosers(dist string, threads, keys int) []loadgen.Chooser {
	out := make([]loadgen.Chooser, threads)
	for t := range out {
		out[t], _ = loadgen.NewChooser(dist, uint64(keys), nil, int64(t+1))
	}
	return out
}

// cores is busy time over the measured window in units of one core (1.0 =
// one core busy throughout, the paper's "100%"): the CPU accounting of Table
// 2 and Figure 21, which the paper took with mpstat/pidstat.
func cores(busy time.Duration, res Res) float64 {
	if res.Wall <= 0 {
		return 0
	}
	return float64(busy) / float64(res.Wall)
}

// writeUtilization converts device stats to a fraction of the profile's
// sequential-write bandwidth over the simulated elapsed time.
func writeUtilization(st device.Stats, prof device.Profile, simElapsedSec float64) float64 {
	if simElapsedSec <= 0 {
		return 0
	}
	return float64(st.WrittenBytes) / simElapsedSec / prof.SeqWriteBW
}
