// Package kv defines the engine contract shared by every storage engine in
// this repository (the RocksDB/LevelDB/PebblesDB-style LSM engine, the
// WiredTiger-style B+-tree engine, and the KVell-style slab engine) and
// consumed by the p2KVS framework.
//
// p2KVS (the paper's contribution) treats engines as black boxes: Engine is
// all it requires. Everything else is an optional capability, an interface an
// engine may implement; the accessing layer asks for each once, when it
// builds the engine's worker, and runs a fallback where the answer is no.
// The request path has three, mirroring §4.5 and §4.6 of the paper —
// BatchWriter and MultiGetter (OBM degrades to per-request calls without
// them; Caps lets a configured engine disown one) and GSNWriter (atomic
// recovery of a cross-partition Write). The operational ones are
// HealthReporter, CompactionStatsReporter, Checkpointer and Scrubber.
// DESIGN.md §5 holds the table: who asks, which engines answer, and the
// kvtest case (internal/kv/kvtest) that checks each on every engine.
package kv

import (
	"context"
	"errors"
	"fmt"

	"p2kvs/internal/stats"
)

// The tagged report structs below are merged across workers; a field whose
// agg rule is missing or unusable fails this dry run, at start-up.
func init() {
	stats.Merge(&Health{}, Health{})
	stats.Merge(&CompactionStats{}, CompactionStats{})
	stats.Merge(&CheckpointStats{}, CheckpointStats{})
	stats.Merge(&ScrubResult{}, ScrubResult{})
}

// ErrNotFound is returned by Get when the key does not exist (or its most
// recent version is a tombstone).
var ErrNotFound = errors.New("kv: key not found")

// ErrClosed is returned by operations on a closed engine.
var ErrClosed = errors.New("kv: engine closed")

// ErrDegraded is the base error returned by write-type operations while an
// engine is in read-only degraded mode (background-error retries
// exhausted). Callers match it with errors.Is and may call Resume on a
// HealthReporter engine to re-attempt recovery.
var ErrDegraded = errors.New("kv: engine degraded to read-only")

// DegradedError is the error that blocks writes while an engine is
// read-only: which engine, which of its jobs failed, and the failure. One
// type for every engine family (the engine guard installs it); it matches
// ErrDegraded under errors.Is and unwraps to the cause, so a caller can
// still classify that (vfs.IsNoSpace, ErrCorruption).
type DegradedError struct {
	Engine string
	Job    string
	Cause  error
}

func (e *DegradedError) Error() string {
	return fmt.Sprintf("%s: %s failed, engine degraded to read-only: %v", e.Engine, e.Job, e.Cause)
}

func (e *DegradedError) Unwrap() error { return e.Cause }

// Is makes errors.Is(err, ErrDegraded) match any DegradedError.
func (e *DegradedError) Is(target error) bool { return target == ErrDegraded }

// ErrOverloaded is returned by admission control when a request cannot be
// accepted without unbounded waiting — the target shard's queue is full
// (or the shard is degraded) under a fail-fast admission policy. The
// request was NOT enqueued; retrying after backoff is safe.
var ErrOverloaded = errors.New("kv: shard overloaded")

// ErrDeadlineExceeded is returned when a request's context expires or is
// canceled before the request reaches the engine: at submission, while
// waiting for queue space, or when the worker sheds it at dequeue. The
// operation was never applied; retrying with a fresh deadline is safe.
// Errors wrap the context cause, so errors.Is also matches
// context.DeadlineExceeded / context.Canceled as appropriate.
var ErrDeadlineExceeded = errors.New("kv: request deadline exceeded")

// ErrCorruption is the base error of every at-rest integrity failure: a
// block, page, journal record or slab slot whose stored checksum does not
// match its content. Engines return it (usually wrapped in a
// CorruptionError naming the file) instead of a wrong answer — a read that
// cannot be proven correct fails typed, it never fabricates a value and it
// never panics.
var ErrCorruption = errors.New("kv: data corruption detected")

// CorruptionError pinpoints one integrity failure: which file, where in
// it, and what check failed. It matches ErrCorruption under errors.Is.
type CorruptionError struct {
	// File is the engine-relative path of the damaged file.
	File string
	// Offset is the byte offset of the damaged region within File, -1 when
	// the failure is not offset-specific (e.g. a truncated footer).
	Offset int64
	// Detail describes the failed check ("block crc mismatch", ...).
	Detail string
}

func (e *CorruptionError) Error() string {
	if e.Offset >= 0 {
		return fmt.Sprintf("kv: data corruption detected: %s @%d: %s", e.File, e.Offset, e.Detail)
	}
	return fmt.Sprintf("kv: data corruption detected: %s: %s", e.File, e.Detail)
}

// Is makes errors.Is(err, ErrCorruption) match any CorruptionError.
func (e *CorruptionError) Is(target error) bool { return target == ErrCorruption }

// HealthState is the background-error state of an engine.
type HealthState int32

// Engine health states, ordered by severity.
const (
	// StateHealthy: no outstanding background error.
	StateHealthy HealthState = iota
	// StateRetrying: a background job (flush/compaction) failed and is
	// being retried with backoff; writes still succeed.
	StateRetrying
	// StateReadOnly: retries were exhausted; writes fail fast with
	// ErrDegraded until Resume succeeds. Reads keep working.
	StateReadOnly
)

var stateNames = [...]string{"healthy", "retrying", "read-only"}

func (s HealthState) String() string {
	if uint(s) < uint(len(stateNames)) {
		return stateNames[s]
	}
	return "unknown"
}

// MarshalText makes a state cross JSON and INFO as its name.
func (s HealthState) MarshalText() ([]byte, error) { return []byte(s.String()), nil }

// UnmarshalText reads a state back from its name, so a stats document
// decodes into the struct that produced it.
func (s *HealthState) UnmarshalText(b []byte) error {
	for i, name := range stateNames {
		if name == string(b) {
			*s = HealthState(i)
			return nil
		}
	}
	return fmt.Errorf("kv: unknown health state %q", b)
}

// Health is a snapshot of an engine's background-error condition. Like
// CompactionStats and CheckpointStats it is embedded in the accessing
// layer's per-worker stats, so its tags are its schema (internal/stats).
type Health struct {
	State HealthState `json:"health" agg:"worst" info:"Store"`
	// Err is the background error that caused a non-healthy state; nil
	// when State is StateHealthy.
	Err *Cause `json:"health_err,omitempty" agg:"worst" info:"Robustness"`
	// FlushRetries / CompactRetries count background job attempts beyond
	// the first, cumulative over the engine's lifetime.
	FlushRetries   int64 `json:"flush_retries" agg:"sum" info:"Robustness"`
	CompactRetries int64 `json:"compact_retries" agg:"sum" info:"Robustness"`
	// InjectedFaults counts faults fired by a fault-injecting filesystem
	// under the engine, when one is present (vfs.InjectedFaults); 0
	// otherwise. The counter belongs to the filesystem, which the workers
	// share, so the aggregate takes the max.
	InjectedFaults int64 `json:"injected_faults" agg:"max" info:"Robustness"`
	// DiskFull reports that the current degraded state was caused by
	// space exhaustion (ENOSPC): reads keep working, writes fail, and the
	// engine's guard will auto-Resume once space frees. Always false
	// when State is StateHealthy.
	DiskFull bool `json:"disk_full" agg:"or" info:"Robustness"`
	// DiskFullEvents counts transitions into disk-full degraded mode over
	// the engine's lifetime; AutoResumes counts how many times the guard's
	// poll brought the engine back without an explicit Resume call.
	DiskFullEvents int64 `json:"disk_full_events" agg:"sum" info:"Robustness"`
	AutoResumes    int64 `json:"auto_resumes" agg:"sum" info:"Robustness"`
	// CorruptionEvents counts at-rest integrity failures detected over the
	// engine's lifetime (checksum mismatches on reads, scrubs or recovery).
	CorruptionEvents int64 `json:"corruption_events" agg:"sum" info:"Robustness"`
	// QuarantinedFiles is the number of files currently quarantined:
	// detected corrupt and fenced off so reads covering them fail with
	// ErrCorruption while the rest of the keyspace keeps serving.
	QuarantinedFiles int64 `json:"quarantined_files" agg:"sum" info:"Robustness"`
	// RepairedFiles counts quarantined files restored from a verified
	// backup copy and returned to service.
	RepairedFiles int64 `json:"repaired_files" agg:"sum" info:"Robustness"`
	// LastCorruption is the most recent corruption error, nil when none
	// has ever been detected (it is informational and does not imply the
	// engine is still degraded — the file may have been repaired).
	LastCorruption *Cause `json:"last_corruption,omitempty" agg:"last" info:"Robustness"`
}

// Cause is the type of Health's error fields: an error that crosses JSON
// and INFO as its message and decodes back from it. On the reporting side
// errors.Is/As see the wrapped chain; a decoded Cause carries the message
// only.
type Cause struct{ err error }

// CauseOf wraps err; nil stays nil, so "no error" is a nil *Cause.
func CauseOf(err error) *Cause {
	if err == nil {
		return nil
	}
	return &Cause{err}
}

func (c *Cause) Error() string                { return c.err.Error() }
func (c *Cause) Unwrap() error                { return c.err }
func (c *Cause) MarshalText() ([]byte, error) { return []byte(c.Error()), nil }

// UnmarshalText restores the message of a marshalled Cause.
func (c *Cause) UnmarshalText(b []byte) error {
	c.err = errors.New(string(b))
	return nil
}

// HealthReporter is the optional capability of reporting background-error
// health and of re-attempting recovery from degraded read-only mode (every
// engine gets both from the one guard.Guard it embeds). The p2KVS accessing
// layer surfaces Health in per-worker stats and fails writes fast on a
// read-only shard.
type HealthReporter interface {
	Health() Health
	// Resume clears the degraded state and re-kicks background work. It
	// returns an error only if the engine is closed; whether recovery
	// ultimately succeeds is observable via Health.
	Resume() error
}

// CompactionStats is a snapshot of an engine's compaction-scheduler and
// write-backpressure activity.
type CompactionStats struct {
	// Compactions counts installed compactions; MaxConcurrent is the
	// high-water mark of compactions running at once.
	Compactions   int64 `json:"compactions" agg:"sum" info:"Store"`
	MaxConcurrent int64 `json:"concurrent_compactions_hw" agg:"max" info:"Store"`
	// StallUs is cumulative time writers spent hard-blocked on L0/flush
	// backpressure; SlowdownUs is cumulative time spent in soft-slowdown
	// sleeps below the stall threshold. Slowdowns counts delayed writes.
	StallUs    int64 `json:"compaction_stall_us" agg:"sum" info:"Store"`
	SlowdownUs int64 `json:"compaction_slowdown_us" agg:"sum" info:"Store"`
	Slowdowns  int64 `json:"compaction_slowdowns" agg:"sum" info:"Store"`
}

// CompactionStatsReporter is the optional capability of reporting
// compaction and backpressure statistics. The p2KVS accessing layer
// surfaces it in per-worker stats.
type CompactionStatsReporter interface {
	CompactionStats() CompactionStats
}

// RateLimiter throttles bulk IO (the scrub read path) to a byte budget.
// WaitN blocks until n bytes of budget are available or ctx is done; a nil
// RateLimiter means unthrottled. internal/scrub provides the token-bucket
// implementation.
type RateLimiter interface {
	WaitN(ctx context.Context, n int) error
}

// ScrubResult summarizes one integrity scrub pass over an engine.
type ScrubResult struct {
	// FilesScanned / BytesScanned measure the verified surface.
	FilesScanned int64 `json:"files_scanned" agg:"sum"`
	BytesScanned int64 `json:"bytes_scanned" agg:"sum"`
	// CorruptionsFound counts files that failed verification during this
	// pass (each is quarantined); FilesRepaired counts those restored from
	// backup during the same pass.
	CorruptionsFound int64 `json:"corruptions_found" agg:"sum"`
	FilesRepaired    int64 `json:"files_repaired" agg:"sum"`
}

// Scrubber is the optional capability of proactively verifying every live
// at-rest byte against its stored checksums. Scrub walks the engine's
// files, reading through lim (nil = unthrottled); corrupt files are
// quarantined (and repaired when a RepairSource covers them) exactly as if
// a foreground read had tripped over them. Scrub returns an error only for
// infrastructure failures (engine closed, ctx done) — finding corruption
// is a successful scrub, reported in the result.
type Scrubber interface {
	Scrub(ctx context.Context, lim RateLimiter) (ScrubResult, error)
}

// RepairSource is the optional backup side-channel engines consult to
// repair a quarantined file: Fetch returns the verified content of the
// named file from the newest backup generation, or false when the backup
// does not cover it. Implementations must verify the bytes against the
// backup's own checksums before returning them.
type RepairSource interface {
	Fetch(name string) ([]byte, bool)
}

// Engine is the minimal synchronous key-value store contract.
type Engine interface {
	// Put inserts or overwrites a key.
	Put(key, value []byte) error
	// Get returns the value for key, or ErrNotFound.
	// The returned slice is owned by the caller.
	Get(key []byte) ([]byte, error)
	// Delete removes a key. Deleting an absent key is not an error.
	Delete(key []byte) error
	// NewIterator returns an iterator over the live keys in ascending
	// order. The iterator observes a consistent snapshot of the store.
	NewIterator() (Iterator, error)
	// Flush forces all buffered writes down to the persistent substrate.
	Flush() error
	// Close releases all resources. The engine must not be used after.
	Close() error
}

// BatchWriter is the optional capability of committing several write-type
// operations atomically with a single journal IO (RocksDB/LevelDB
// WriteBatch). Engines lacking it (e.g. the WiredTiger-style engine) make
// p2KVS fall back to per-request writes.
type BatchWriter interface {
	// Write applies the batch's operations in order and atomically: one
	// journal record, so recovery sees all of it or none of it. It
	// promises no isolation — a read that runs while Write does may see
	// part of the batch (the lsm engine numbers a batch's entries before
	// it inserts them; RocksDB's unordered_write makes the same trade).
	// The accessing layer needs none: one worker is an instance's only
	// caller, and §4.5 promises atomic recovery, not read isolation.
	Write(batch *Batch) error
}

// MultiGetter is the optional capability of resolving several point
// lookups in one call (RocksDB multiget). p2KVS's OBM uses it for
// read-type batched requests.
type MultiGetter interface {
	// MultiGet returns one value slot per key; a nil slot means the key
	// was not found, so a present key's slot is never nil (Present). The
	// error reports infrastructure failures only.
	MultiGet(keys [][]byte) ([][]byte, error)
}

// GSNWriter is the optional capability behind §4.5's transactions: a
// BatchWriter that can tag the batch's journal record with a p2KVS Global
// Sequence Number ("a prefix of the original log sequence number"), and
// whose recovery drops the tagged records a filter rejects — the legs of a
// cross-partition Write whose commit record never reached the transaction
// log. Without it the accessing layer commits such a leg untagged, and a
// crash between two legs leaves the applied one in place.
type GSNWriter interface {
	// WriteGSN is BatchWriter.Write with the record tagged gsn; 0 tags
	// nothing.
	WriteGSN(batch *Batch, gsn uint64) error
}

// present is the value of every present key whose value is empty.
var present = []byte{}

// Present returns v as the value of a present key. Where a nil slice means
// "absent" (a MultiGet slot, a hot-cache hit, a RESP bulk reply), a key
// stored with an empty value must not read as nil: it reads as one shared
// zero-length slice, which costs no allocation.
func Present(v []byte) []byte {
	if v == nil {
		return present
	}
	return v
}

// Caps describes which optional capabilities an engine supports under its
// *current configuration*. Interface assertions only reveal what methods
// exist; Caps lets a configurable engine (e.g. the LSM engine with
// MultiGet disabled to model LevelDB) report what is actually usable.
type Caps struct {
	BatchWrite bool
	MultiGet   bool
}

// CapabilityReporter is implemented by engines with a batch path. p2KVS
// consults it before enabling OBM's batch paths.
type CapabilityReporter interface {
	Caps() Caps
}

// CapsOf is an engine's own report of its batch capabilities; an engine
// that reports nothing has none.
func CapsOf(e Engine) Caps {
	if r, ok := e.(CapabilityReporter); ok {
		return r.Caps()
	}
	return Caps{}
}

// Iterator walks keys in ascending byte order.
//
// Usage:
//
//	it, _ := db.NewIterator()
//	defer it.Close()
//	for it.SeekToFirst(); it.Valid(); it.Next() { ... }
type Iterator interface {
	// Valid reports whether the iterator is positioned at a live entry.
	Valid() bool
	// SeekToFirst positions at the smallest key.
	SeekToFirst()
	// Seek positions at the first key >= target.
	Seek(target []byte)
	// Next advances to the following key.
	Next()
	// Key returns the current key. Valid until the next positioning call.
	Key() []byte
	// Value returns the current value. Valid until the next positioning call.
	Value() []byte
	// Error returns the first IO error encountered, if any.
	Error() error
	// Close releases iterator resources.
	Close() error
}

// OpKind discriminates write-type operations inside a Batch.
type OpKind uint8

// Batch operation kinds.
const (
	OpPut OpKind = iota + 1
	OpDelete
)

// BatchOp is a single operation recorded in a Batch.
type BatchOp struct {
	Kind  OpKind
	Key   []byte
	Value []byte // nil for OpDelete
}

// Batch accumulates write-type operations to be applied atomically by a
// BatchWriter. The zero value is an empty, usable batch.
type Batch struct {
	ops  []BatchOp
	size int
}

// Put appends an insert/overwrite to the batch.
func (b *Batch) Put(key, value []byte) {
	b.ops = append(b.ops, BatchOp{Kind: OpPut, Key: key, Value: value})
	b.size += len(key) + len(value)
}

// Delete appends a deletion to the batch.
func (b *Batch) Delete(key []byte) {
	b.ops = append(b.ops, BatchOp{Kind: OpDelete, Key: key})
	b.size += len(key)
}

// Ops exposes the recorded operations in insertion order.
func (b *Batch) Ops() []BatchOp { return b.ops }

// Len reports the number of operations in the batch.
func (b *Batch) Len() int { return len(b.ops) }

// Size reports the accumulated key+value byte size, used for batching
// heuristics and group-commit accounting.
func (b *Batch) Size() int { return b.size }

// Reset empties the batch for reuse.
func (b *Batch) Reset() {
	b.ops = b.ops[:0]
	b.size = 0
}
