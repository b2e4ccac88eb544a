package core

import (
	"time"

	"p2kvs/internal/keyspace"
	"p2kvs/internal/kv"
	"p2kvs/internal/repl"
	"p2kvs/internal/vfs"
)

// EngineFactory opens the KVS instance for one worker. recoverFilter is
// non-nil when the store is recovering from a crash with uncommitted
// cross-instance transactions; factories for engines that support GSN
// tagging (the LSM engine's OpenOptions.RecoverFilter) should pass it
// through, others may ignore it — they simply don't get cross-instance
// atomicity, matching §4.6's capability-dependent behaviour.
type EngineFactory func(workerID int, recoverFilter func(gsn uint64) bool) (kv.Engine, error)

// AdmissionPolicy decides what happens when a request targets a worker
// whose queue is full (or, for writes, whose engine is degraded).
type AdmissionPolicy int

// Admission policies.
const (
	// AdmitBlock blocks the submitter until queue space frees — the
	// original backpressure behaviour. A request context still aborts
	// the wait with kv.ErrDeadlineExceeded.
	AdmitBlock AdmissionPolicy = iota
	// AdmitReject never waits: a full queue fails fast with
	// kv.ErrOverloaded, and writes to a degraded shard fail with an
	// error matching both kv.ErrOverloaded and kv.ErrDegraded. Hot-shard
	// floods bounce at the accessing layer instead of dragging every
	// co-hashed caller into unbounded queue wait.
	AdmitReject
)

// Options configures a p2KVS store.
type Options struct {
	// Workers is the number of KVS instances / worker threads. The paper
	// defaults to 8 (matched to hardware parallelism, §4.2).
	Workers int
	// EngineFactory opens each worker's instance. Required.
	EngineFactory EngineFactory
	// Partitioner maps keys to workers; defaults to the modular hash.
	Partitioner keyspace.Partitioner
	// OBM enables opportunistic request batching (§4.3). Default on via
	// DefaultOptions; the sensitivity study (Figure 17) disables it.
	OBM bool
	// Direct lets a synchronous, deadline-free operation run each idle
	// worker's leg on the caller's goroutine instead of handing it to the
	// worker (Store.direct): a Get's one key or a MultiGet's keys of that
	// worker, and — when no reshard runs — a Put's or Delete's op, a
	// one-partition WriteCtx's batch or a WriteEachCtx leg, applied through
	// the worker's own commit under its exec lock (Store.directWrite). An
	// extension: at queue depth one there is nothing for OBM to amortise the
	// handoff with. Default on via DefaultOptions; the paper-figure
	// experiments, which model one worker as one thread, turn it off.
	Direct bool
	// MaxBatch bounds requests per OBM batch (32 by default, the paper's
	// tail-latency guard).
	MaxBatch int
	// QueueDepth bounds each worker's request queue (backpressure for
	// the async interface).
	QueueDepth int
	// Admission selects the overload behaviour of request submission
	// (default AdmitBlock, the original blocking backpressure).
	Admission AdmissionPolicy
	// DrainTimeout bounds Close's drain of queued requests. Zero keeps
	// the original wait-forever semantics; a positive value makes Close
	// fail still-queued requests with kv.ErrClosed once the deadline
	// passes, so a wedged engine cannot hang shutdown.
	DrainTimeout time.Duration
	// TxnFS + TxnDir host the transaction GSN log (§4.5). Required for
	// cross-instance Write atomicity and crash recovery; single-instance
	// requests never touch it.
	TxnFS  vfs.FS
	TxnDir string
	// EngineName labels the engine family in checkpoint manifests so
	// Restore can refuse an image taken with a different engine. Optional;
	// empty means "unspecified" and restores skip the compatibility check.
	EngineName string
	// ScrubInterval enables a background integrity scrub of every worker
	// engine on this cadence (0 = no background scrubbing; Store.Scrub
	// remains available for on-demand passes). ScrubRate bounds the scrub's
	// aggregate read bandwidth in bytes/second (0 = unthrottled).
	ScrubInterval time.Duration
	ScrubRate     int64
	// HotCacheBytes, when non-zero, enables the hot-key read cache above
	// the worker queues: GET results (including not-found) are cached and
	// served without queue admission or a worker round-trip; every applied
	// write rewrites its resident entry before it is acknowledged.
	// Positive values set the byte budget; negative selects the default
	// 32 MiB. Zero (the default) disables the cache.
	HotCacheBytes int64
	// InstanceReset, when non-nil, deletes worker workerID's on-disk
	// instance state so EngineFactory(workerID, …) opens a blank engine.
	// Online resharding requires it: growing wipes the target directories
	// before seeding them (a crashed earlier attempt may have left a
	// partial copy), and shrinking retires the dropped workers' state.
	InstanceReset func(workerID int) error
	// CutoverBudget bounds the writer pause of one reshard cutover
	// attempt (the time routing is frozen for the ring swap). An attempt
	// that cannot commit inside the budget releases the barrier, lets
	// writers resume, and retries. Zero selects DefaultCutoverBudget
	// (10ms).
	CutoverBudget time.Duration
	// ReplLog, when non-nil, enables replication: every applied write
	// batch is recorded in this backlog under a GSN assigned at apply
	// time, each worker's lastGSN watermark becomes its stream cursor
	// (recorded by checkpoints, consumed by replicas), and
	// Store.ApplyRepl accepts replicated records from a primary. The log
	// must be sized for the same worker count.
	ReplLog *repl.Log
}

// DefaultOptions returns the paper's default configuration (8 workers,
// OBM on, batch cap 32), with the direct rule on.
func DefaultOptions(factory EngineFactory) Options {
	return Options{
		Workers:       8,
		EngineFactory: factory,
		OBM:           true,
		Direct:        true,
		MaxBatch:      32,
		QueueDepth:    4096,
	}
}

// DefaultHotCacheBytes is the hot-key cache budget selected by a
// negative Options.HotCacheBytes.
const DefaultHotCacheBytes = 32 << 20

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = 8
	}
	if o.HotCacheBytes < 0 {
		o.HotCacheBytes = DefaultHotCacheBytes
	}
	if o.MaxBatch <= 0 {
		o.MaxBatch = 32
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 4096
	}
	if o.Partitioner == nil {
		o.Partitioner = keyspace.NewHash(o.Workers)
	}
	return o
}
