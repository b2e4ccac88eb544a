// Package p2kvs is the public API of this repository: a from-scratch Go
// reproduction of "p2KVS: a Portable 2-Dimensional Parallelizing
// Framework to Improve Scalability of Key-value Stores on SSDs"
// (EuroSys '22).
//
// p2KVS partitions the key space by hash over N worker threads, each
// owning a private KVS instance (its own WAL, memtable and LSM-tree), and
// opportunistically batches consecutive same-type requests on each
// worker's queue into WriteBatch/multiget calls. The framework treats the
// per-worker engine as a black box; this package ships four engine
// families to slot underneath it — a RocksDB-style LSM engine (with
// LevelDB and PebblesDB presets), a WiredTiger-style B+-tree engine, and
// a KVell-style slab engine.
//
// Quickstart:
//
//	store, err := p2kvs.Open(p2kvs.Options{Dir: "/tmp/db", Workers: 8})
//	...
//	store.Put([]byte("k"), []byte("v"))
//	v, err := store.Get([]byte("k"))
//	store.Close()
package p2kvs

import (
	"errors"
	"fmt"
	"time"

	"p2kvs/internal/btreekv"
	"p2kvs/internal/core"
	"p2kvs/internal/device"
	"p2kvs/internal/keyspace"
	"p2kvs/internal/kv"
	"p2kvs/internal/kvell"
	"p2kvs/internal/lsm"
	"p2kvs/internal/repl"
	"p2kvs/internal/reshard"
	"p2kvs/internal/vfs"
	"p2kvs/internal/wal"
)

// Re-exported types: the facade aliases the internal contract types so
// applications never import internal packages.
type (
	// Store is a p2KVS store (the accessing layer + workers). Its
	// asynchronous forms (PutAsync, GetAsync) hand key and value to the
	// engine without copying them: both must stay unmodified until the
	// callback runs, on a worker goroutine or a synchronous writer's that led
	// its queue, so it should be short and must not call into the store; the
	// value GetAsync passes it is the caller's to keep, as Get's result is.
	Store = core.Store
	// Batch accumulates write operations for atomic commit.
	Batch = kv.Batch
	// Iterator walks keys in ascending order.
	Iterator = kv.Iterator
	// Pair is a key/value result from Range and Scan.
	Pair = core.Pair
	// WorkerStats summarizes one worker's activity.
	WorkerStats = core.WorkerStats
	// StatsSnapshot is the stable-schema stats document returned by
	// Store.StatsSnapshot; the same document backs the network server's
	// INFO and /metrics and dbbench's store lines.
	StatsSnapshot = core.StatsSnapshot
	// ReshardStats reports the state and counters of the last (or
	// in-flight) online reshard; see Store.ReshardStats.
	ReshardStats = reshard.Stats
	// AdmissionPolicy selects the overload behaviour of request
	// submission (see the AdmitBlock/AdmitReject constants).
	AdmissionPolicy = core.AdmissionPolicy
	// SyncPolicy selects WAL durability on engines with a log (see the
	// SyncNever/SyncInterval/SyncOnCommit constants).
	SyncPolicy = wal.SyncPolicy
)

// WAL durability policies (re-exported from the wal package). Under
// SyncOnCommit, any write acknowledged to the caller survives a crash —
// including SIGKILL — of the process (the fsync happens before the ack).
// SyncInterval bounds the data-loss window to Options.WALSyncInterval;
// SyncNever leaves durability to the OS page cache and engine
// checkpoints.
const (
	SyncNever    = wal.PolicyNever
	SyncInterval = wal.PolicyInterval
	SyncOnCommit = wal.PolicyCommit
)

// Admission policies (re-exported from core).
const (
	// AdmitBlock blocks submitters on a full shard queue (default).
	AdmitBlock = core.AdmitBlock
	// AdmitReject fails fast with ErrOverloaded on a full or degraded
	// shard.
	AdmitReject = core.AdmitReject
)

// ErrNotFound is returned by Get when a key does not exist.
var ErrNotFound = kv.ErrNotFound

// ErrClosed is returned by operations on a closed store, and delivered to
// requests still queued when a drain-deadline Close fails them.
var ErrClosed = kv.ErrClosed

// ErrDegraded is returned by writes aimed at a shard whose engine is in
// read-only degraded mode; see Store.Resume. Retryable after Resume.
var ErrDegraded = kv.ErrDegraded

// ErrOverloaded is returned by admission control when a shard cannot
// accept a request without waiting (AdmitReject).
// The request was not enqueued; retrying after backoff is safe.
var ErrOverloaded = kv.ErrOverloaded

// ErrDeadlineExceeded is returned when a request's context ends before
// the request reaches the engine; the operation was never applied.
var ErrDeadlineExceeded = kv.ErrDeadlineExceeded

// ErrReshardUnsupported is returned by Store.Reshard on a store that was
// not opened with Options.Elastic.
var ErrReshardUnsupported = core.ErrReshardUnsupported

// EngineKind selects the per-worker storage engine.
type EngineKind string

// Engine kinds.
const (
	// EngineRocksDB is the default: the full LSM engine with group
	// logging, concurrent memtable, pipelined writes and multiget.
	EngineRocksDB EngineKind = "rocksdb"
	// EngineLevelDB disables the RocksDB concurrency features and
	// multiget (§5.6.1 portability target).
	EngineLevelDB EngineKind = "leveldb"
	// EnginePebblesDB uses fragmented (guard-based) compaction for lower
	// write amplification (§5.2 baseline).
	EnginePebblesDB EngineKind = "pebblesdb"
	// EngineWiredTiger is the B+-tree engine without batch writes
	// (§5.6.2 portability target).
	EngineWiredTiger EngineKind = "wiredtiger"
	// EngineKVell is the share-nothing slab engine (§5.5 baseline).
	EngineKVell EngineKind = "kvell"
)

// Options configures Open.
type Options struct {
	// Dir is the root directory; each worker stores its instance in
	// Dir/inst-NN. Required.
	Dir string
	// Workers is the number of KVS instances (default 8, the paper's
	// recommended match to hardware parallelism). It only seeds a new
	// directory: Open records the count (the TOPOLOGY file under Dir/txn)
	// and every later Open of the directory adopts the recorded one.
	Workers int
	// Engine selects the per-worker engine (default EngineRocksDB).
	Engine EngineKind
	// InMemory uses an in-memory filesystem instead of the host
	// filesystem — handy for tests and experiments.
	InMemory bool
	// SimulateDevice, when non-empty ("nvme", "sata", "hdd"), layers the
	// corresponding simulated device model over the filesystem.
	SimulateDevice string
	// DeviceScale multiplies simulated IO durations (default 1.0).
	DeviceScale float64
	// Admission selects what a request meets at a full worker queue (4096
	// requests): AdmitBlock (default, blocking backpressure) or AdmitReject
	// (fail fast with ErrOverloaded).
	Admission AdmissionPolicy
	// DrainTimeout bounds Close's drain: queued requests still pending
	// when it passes complete with ErrClosed instead of Close hanging
	// behind a stalled engine. Zero waits forever (default).
	DrainTimeout time.Duration
	// WALSync selects the WAL durability policy (SyncNever, the zero
	// value; SyncInterval; SyncOnCommit). WALSyncInterval bounds
	// staleness under SyncInterval (default 100ms). Ignored by engines
	// without a log (KVell).
	WALSync         SyncPolicy
	WALSyncInterval time.Duration
	// BlockCacheSize overrides the per-instance data-block cache budget
	// (LSM engines; 0 = default 8 MiB, negative disables).
	BlockCacheSize int64
	// ScrubInterval enables a background at-rest integrity scrub on this
	// cadence: every worker engine re-reads its files and verifies their
	// block checksums, quarantining (and, with RepairFrom, repairing) what
	// fails. Zero disables the background loop; Store.Scrub stays available
	// for on-demand passes either way.
	ScrubInterval time.Duration
	// ScrubRate bounds the scrub's aggregate read bandwidth in bytes per
	// second so verification never starves foreground IO (0 = unthrottled).
	ScrubRate int64
	// RepairFrom names a backup directory (as written by Backup, on the
	// host filesystem) engines may pull verified file content from to
	// repair a quarantined file in place. Empty disables self-repair;
	// corruption is then contained until an operator restores.
	RepairFrom string
	// HotCacheBytes, when non-zero, enables the sharded hot-key read
	// cache above the worker queues: Get/MultiGet hits are served
	// without queue admission, and every applied write rewrites its
	// resident entry before it is acknowledged, so a hit is never older
	// than the last acknowledged write. Positive values set the
	// byte budget; negative selects the default 32 MiB. Zero (the
	// default) disables the cache.
	HotCacheBytes int64
	// Elastic enables online resharding: keys are placed by an
	// epoch-versioned consistent-hash ring instead of the modular hash,
	// and Store.Reshard(ctx, n) grows or shrinks the store to n workers
	// while it keeps serving. A reshard commits its new count to TOPOLOGY,
	// which the next Open adopts (see Workers). Mutually exclusive with
	// ReplBacklogBytes — replication logs are sized to a fixed worker
	// count.
	Elastic bool
	// ReplBacklogBytes, when non-zero, enables GSN log-shipping
	// replication: every applied write batch is retained (with its
	// apply-time Global Sequence Number) in an in-memory backlog that
	// replicas tail over the network server's PSYNC protocol. Positive
	// values set the retention budget in bytes; negative selects the
	// default 16 MiB. Zero (the default) disables replication.
	ReplBacklogBytes int64
}

// Open creates or reopens a p2KVS store.
func Open(opts Options) (*Store, error) {
	opts, fs, err := buildFS(opts)
	if err != nil {
		return nil, err
	}
	return openWithFS(opts, fs)
}

// buildFS normalizes opts and constructs the filesystem stack Open and
// Restore share (in-memory or host, optionally device-wrapped).
func buildFS(opts Options) (Options, vfs.FS, error) {
	if opts.Dir == "" {
		return opts, nil, errors.New("p2kvs: Options.Dir is required")
	}
	if opts.Workers <= 0 {
		opts.Workers = 8
	}
	if opts.Engine == "" {
		opts.Engine = EngineRocksDB
	}

	var fs vfs.FS
	if opts.InMemory {
		fs = vfs.NewMem()
	} else {
		fs = vfs.NewOS()
	}
	switch opts.SimulateDevice {
	case "":
	case "nvme":
		fs = device.WrapFS(fs, device.New(device.NVMe, scale(opts)))
	case "sata":
		fs = device.WrapFS(fs, device.New(device.SATA, scale(opts)))
	case "hdd":
		fs = device.WrapFS(fs, device.New(device.HDD, scale(opts)))
	default:
		return opts, nil, fmt.Errorf("p2kvs: unknown device profile %q", opts.SimulateDevice)
	}
	return opts, fs, nil
}

func openWithFS(opts Options, fs vfs.FS) (*Store, error) {
	if opts.Elastic && opts.ReplBacklogBytes != 0 {
		return nil, errors.New("p2kvs: Elastic and ReplBacklogBytes are mutually exclusive")
	}
	// The directory's recorded worker count (its first Open's, or the last
	// reshard's) owns the routing: keys placed by one count are lost to
	// another.
	topo, err := reshard.LoadTopology(fs, opts.Dir+"/txn")
	if err != nil {
		return nil, err
	}
	if topo != nil {
		opts.Workers = topo.Workers
	}
	factory, err := engineFactory(fs, opts)
	if err != nil {
		return nil, err
	}
	copts := core.DefaultOptions(factory)
	copts.Workers = opts.Workers
	copts.Admission = opts.Admission
	copts.DrainTimeout = opts.DrainTimeout
	copts.TxnFS = fs
	copts.TxnDir = opts.Dir + "/txn"
	copts.EngineName = string(opts.Engine)
	copts.ScrubInterval = opts.ScrubInterval
	copts.ScrubRate = opts.ScrubRate
	copts.HotCacheBytes = opts.HotCacheBytes
	if opts.ReplBacklogBytes != 0 {
		copts.ReplLog = repl.NewLog(opts.Workers, opts.ReplBacklogBytes)
	}
	if opts.Elastic {
		copts.Partitioner = keyspace.NewConsistent(opts.Workers, keyspace.DefaultReplicas)
		copts.InstanceReset = func(id int) error {
			return vfs.RemoveTree(fs, fmt.Sprintf("%s/inst-%02d", opts.Dir, id))
		}
	}
	return core.Open(copts)
}

func scale(o Options) float64 {
	if o.DeviceScale > 0 {
		return o.DeviceScale
	}
	return 1.0
}

func engineFactory(fs vfs.FS, opts Options) (core.EngineFactory, error) {
	instDir := func(id int) string { return fmt.Sprintf("%s/inst-%02d", opts.Dir, id) }
	switch opts.Engine {
	case EngineRocksDB, EngineLevelDB, EnginePebblesDB:
		return func(id int, filter func(uint64) bool) (kv.Engine, error) {
			var lo lsm.Options
			switch opts.Engine {
			case EngineLevelDB:
				lo = lsm.LevelDBOptions(fs)
			case EnginePebblesDB:
				lo = lsm.PebblesDBOptions(fs)
			default:
				lo = lsm.RocksDBOptions(fs)
			}
			lo.WALSync = opts.WALSync
			lo.WALSyncInterval = opts.WALSyncInterval
			lo.BlockCacheSize = opts.BlockCacheSize
			lo.RepairSource = repairSourceFor(opts, id)
			return lsm.OpenWith(instDir(id), lo, lsm.OpenOptions{RecoverFilter: filter})
		}, nil
	case EngineWiredTiger:
		return func(id int, _ func(uint64) bool) (kv.Engine, error) {
			return btreekv.Open(instDir(id), btreekv.Options{
				FS:              fs,
				WALSync:         opts.WALSync,
				WALSyncInterval: opts.WALSyncInterval,
				RepairSource:    repairSourceFor(opts, id),
			})
		}, nil
	case EngineKVell:
		return func(id int, _ func(uint64) bool) (kv.Engine, error) {
			return kvell.Open(instDir(id), kvell.Options{FS: fs, Workers: 1})
		}, nil
	default:
		return nil, fmt.Errorf("p2kvs: unknown engine %q", opts.Engine)
	}
}
