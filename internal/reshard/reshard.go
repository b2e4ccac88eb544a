// Package reshard holds the bookkeeping of online elastic resharding —
// the state the paper's §4.2 declares out of scope when it notes that
// changing the worker count "may lead to a reconstruction of the entire
// set of KVS instances". The execution glue (barriers, queues, engine
// copies) lives in internal/core; this package owns the three pieces that
// are pure data: the crash-safe persisted topology record whose rename is
// the cutover commit point, the double-write SeenSet that reconciles the
// bulk copy with the live write stream, and the progress tracker behind
// reshard_* stats and RESHARD STATUS.
package reshard

import (
	"fmt"
	"sync"
	"sync/atomic"

	"p2kvs/internal/vfs"
)

// ---------------------------------------------------------------------------
// Phase state machine
// ---------------------------------------------------------------------------

// State is the phase of a resharding operation.
type State int32

// Reshard phases.
const (
	// StateIdle: no reshard has run or the last one finished.
	StateIdle State = iota
	// StatePrepare: new workers are being spawned on fresh instances.
	StatePrepare
	// StateCopy: the checkpoint-pinned image of the moved ranges is
	// streaming to the new owners while live writes double-write.
	StateCopy
	// StateCutover: workers are paused at the GSN barrier for the
	// atomic ring swap.
	StateCutover
	// StateCleanup: the ring has flipped; moved ranges are being deleted
	// from their old owners (traffic already routes to the new ring).
	StateCleanup
	// StateDone: the most recent reshard completed.
	StateDone
	// StateAborted: the most recent reshard rolled back to the old ring.
	StateAborted
)

// String implements fmt.Stringer with the stable labels INFO exposes.
func (s State) String() string {
	switch s {
	case StateIdle:
		return "idle"
	case StatePrepare:
		return "prepare"
	case StateCopy:
		return "copy"
	case StateCutover:
		return "cutover"
	case StateCleanup:
		return "cleanup"
	case StateDone:
		return "done"
	case StateAborted:
		return "aborted"
	default:
		return "unknown"
	}
}

// ---------------------------------------------------------------------------
// Double-write SeenSet
// ---------------------------------------------------------------------------

// SeenSet records every key the double-write interceptor mirrored during
// a reshard's copy window. The copy stream checks it at apply time: a
// copied pair whose key is in the set is stale by construction (the set
// only exists once the run is published, so whatever it holds was written
// during the run: the mirror already delivered a value at least as fresh
// as the pinned image through the same FIFO queue) and is dropped.
// Record-before-enqueue on the mirror side plus FIFO apply order on the
// new owner make the reconciliation deterministic: a live write and the
// bulk copy can land in either order, but the fresher value always
// survives.
type SeenSet struct {
	mu    sync.Mutex
	m     map[string]struct{}
	drops int64
}

// NewSeenSet returns an empty set.
func NewSeenSet() *SeenSet {
	return &SeenSet{m: make(map[string]struct{})}
}

// Record notes that key was double-written.
func (s *SeenSet) Record(key []byte) {
	s.mu.Lock()
	s.m[string(key)] = struct{}{}
	s.mu.Unlock()
}

// Seen reports whether key was recorded. The copy stream is the only
// asker and drops the pair it asked about on a yes, so a yes is counted
// as one drop.
func (s *SeenSet) Seen(key []byte) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.m[string(key)]
	if ok {
		s.drops++
	}
	return ok
}

// Drops reports how many copied pairs the set superseded.
func (s *SeenSet) Drops() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.drops
}

// Len reports how many distinct keys have been recorded.
func (s *SeenSet) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.m)
}

// ---------------------------------------------------------------------------
// Persisted topology
// ---------------------------------------------------------------------------

// TopologyFile is the topology record's name inside the store's
// transaction directory.
const TopologyFile = "TOPOLOGY"

// Topology states.
const (
	// TopologyActive: the recorded worker count is fully consistent on
	// disk — no cleanup owed.
	TopologyActive = "active"
	// TopologyCleanup: the ring flip committed but moved ranges may
	// still exist on their old owners (and, on a shrink, retired
	// instance directories may remain); recovery must finish the
	// cleanup before serving.
	TopologyCleanup = "cleanup"
)

// Topology is the persisted worker-count record of a store, written by its
// first Open. For an elastic store its atomic tmp+rename install is also
// the reshard commit point: a crash before the rename recovers at the old
// worker count (the prepared instances are wiped and the copy restarts
// from scratch); a crash after it recovers at the new count and finishes
// cleanup. There is never a state in which half the keys route one way
// and half the other.
type Topology struct {
	// Workers is the committed worker count.
	Workers int `json:"workers"`
	// PrevWorkers is the count before the most recent transition (equal
	// to Workers when none has happened).
	PrevWorkers int `json:"prev_workers"`
	// Epoch counts committed ring generations.
	Epoch uint64 `json:"epoch"`
	// State is TopologyActive or TopologyCleanup.
	State string `json:"state"`
}

// SaveTopology durably installs t as dir's topology record, sealed
// (vfs.Seal) and committed by vfs.WriteFileAtomic.
func SaveTopology(fs vfs.FS, dir string, t Topology) error {
	body, err := vfs.Seal(t)
	if err != nil {
		return err
	}
	if err := fs.MkdirAll(dir); err != nil {
		return err
	}
	return vfs.WriteFileAtomic(fs, dir+"/"+TopologyFile, body)
}

// LoadTopology reads dir's topology record. A missing record returns
// (nil, nil) — a new directory, or one written before every store recorded
// its count. A present but corrupt record is an explicit error: guessing a
// worker count would route keys to the wrong instances.
func LoadTopology(fs vfs.FS, dir string) (*Topology, error) {
	path := dir + "/" + TopologyFile
	if !fs.Exists(path) {
		return nil, nil
	}
	body, err := vfs.ReadFile(fs, path)
	if err != nil {
		return nil, fmt.Errorf("reshard: reading topology: %w", err)
	}
	var t Topology
	if err := vfs.Unseal(body, &t); err != nil {
		return nil, fmt.Errorf("reshard: topology record: %w", err)
	}
	if t.Workers < 1 {
		return nil, fmt.Errorf("reshard: topology records %d workers", t.Workers)
	}
	return &t, nil
}

// ---------------------------------------------------------------------------
// Progress tracker
// ---------------------------------------------------------------------------

// Tracker is the progress record of a store's resharding activity: the
// current phase and the lifetime counters, declared once as Stats and
// guarded by one mutex (a reshard touches them a few times per copy batch,
// never per request), and the failure latch the double-write interceptor
// trips so the coordinator aborts before cutover instead of committing a
// ring that missed mirrored writes.
type Tracker struct {
	mu     sync.Mutex
	state  State
	stats  Stats // State is filled in by Snapshot
	failed atomic.Bool
}

// Stats is the JSON/INFO projection of a Tracker.
type Stats struct {
	// State is the current phase label (idle/prepare/copy/cutover/
	// cleanup/done/aborted).
	State string `json:"reshard_state"`
	// Epoch is the committed ring generation.
	Epoch uint64 `json:"reshard_epoch"`
	// From/To are the worker counts of the most recent transition.
	From int `json:"reshard_from"`
	To   int `json:"reshard_to"`
	// Completed and Aborted count finished transitions either way.
	Completed int64 `json:"reshard_completed"`
	Aborted   int64 `json:"reshard_aborted"`
	// MovedKeys/MovedBytes tally the bulk copy; DoubleWrites counts ops
	// mirrored to new owners by the interceptor; SkippedStale counts
	// copied pairs dropped because a fresher double-write superseded
	// them.
	MovedKeys    int64 `json:"reshard_moved_keys"`
	MovedBytes   int64 `json:"reshard_moved_bytes"`
	DoubleWrites int64 `json:"reshard_double_writes"`
	SkippedStale int64 `json:"reshard_skipped_stale"`
	// BarrierNs is the cutover pause: the wall time routing was frozen
	// for the ring swap (the p99-writer-pause budget applies to this).
	BarrierNs int64 `json:"reshard_barrier_ns"`
	// CutoverRetries counts cutover attempts released and retried
	// because the barrier or an in-flight cross-partition transaction
	// would have overrun the pause budget.
	CutoverRetries int64 `json:"reshard_cutover_retries"`
	// LastErr is the most recent abort cause, empty when none.
	LastErr string `json:"reshard_last_err,omitempty"`
}

// Update applies f to the counters under the tracker's lock — the one
// mutator behind every tally (moved pairs, double-writes, barrier time,
// the epoch a reopen restores).
func (t *Tracker) Update(f func(*Stats)) {
	t.mu.Lock()
	f(&t.stats)
	t.mu.Unlock()
}

// Snapshot captures the tracker as Stats.
func (t *Tracker) Snapshot() Stats {
	t.mu.Lock()
	defer t.mu.Unlock()
	st := t.stats
	st.State = t.state.String()
	return st
}

// Begin records the start of a from->to transition.
func (t *Tracker) Begin(from, to int, epoch uint64) {
	t.failed.Store(false)
	t.mu.Lock()
	t.stats.From, t.stats.To, t.stats.Epoch, t.stats.LastErr = from, to, epoch, ""
	t.state = StatePrepare
	t.mu.Unlock()
}

// SetState advances the phase.
func (t *Tracker) SetState(s State) {
	t.mu.Lock()
	t.state = s
	t.mu.Unlock()
}

// Fail latches a double-write (or copy) failure; the first error wins.
func (t *Tracker) Fail(err error) {
	if t.failed.CompareAndSwap(false, true) {
		t.Update(func(st *Stats) { st.LastErr = err.Error() })
	}
}

// Failed reports whether the failure latch tripped.
func (t *Tracker) Failed() bool { return t.failed.Load() }

// Complete records a committed transition at the given epoch.
func (t *Tracker) Complete(epoch uint64) {
	t.mu.Lock()
	t.stats.Epoch = epoch
	t.stats.Completed++
	t.state = StateDone
	t.mu.Unlock()
}

// Abort records a rolled-back transition; a nil err keeps the latched
// cause.
func (t *Tracker) Abort(err error) {
	t.mu.Lock()
	t.stats.Aborted++
	if err != nil {
		t.stats.LastErr = err.Error()
	}
	t.state = StateAborted
	t.mu.Unlock()
}
