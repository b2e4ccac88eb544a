// Package repl implements GSN log-shipping replication: the primary's
// accessing layer appends every applied write batch — tagged with the
// Global Sequence Number the worker assigned at apply time — into a
// bounded per-worker backlog (Log), and replicas tail that backlog over a
// CRC-guarded streaming protocol (stream.go) from per-worker GSN cursors.
//
// The cursor is exactly the CHECKPOINT manifest's per-worker lastGSN
// watermark: a replica bootstraps from a backup image, reads the
// watermarks out of the manifest, and resumes the stream from there. A
// replica that falls out of the retained window (the -repl_backlog
// budget) cannot partial-sync — Since reports ErrOutOfWindow and the
// primary falls back to a full sync — but an *attached* replica pins its
// cursor, which defers tail truncation past it, so a slow replica that
// stays connected never resyncs into a hole (mirroring the checkpoint
// pins that defer SST deletion against the compaction scheduler).
package repl

import (
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"p2kvs/internal/kv"
)

// ErrOutOfWindow reports a partial-sync cursor older than the backlog's
// retained tail: the records between the cursor and the tail have been
// trimmed, so resuming would silently skip writes. The caller must fall
// back to a full sync.
var ErrOutOfWindow = errors.New("repl: cursor out of retained backlog window")

// DefaultBacklogBytes is the default retention budget (per store, across
// all workers) when the caller does not configure one.
const DefaultBacklogBytes = 16 << 20

// Record is one applied write batch of one worker: the unit of shipping.
// Payload is the encoded op list (EncodeOps), owned by the record.
type Record struct {
	Worker  int
	GSN     uint64
	Payload []byte
}

func (r Record) size() int64 { return int64(len(r.Payload)) + 24 }

// NewID generates a replication lineage ID (the Redis "replid" idea): a
// fresh one per Log, so a cursor is only meaningful against the lineage
// that produced it. A primary restart produces a new Log and therefore a
// new ID, forcing replicas of the old lineage through a full sync.
func NewID() string {
	var b [20]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is effectively fatal elsewhere; degrade to a
		// constant that can never match a real ID.
		return "0000000000000000000000000000000000000000"
	}
	return hex.EncodeToString(b[:])
}

// BacklogStats is a point-in-time counter snapshot of a Log. The store
// embeds it in its stats document, so the tags are its schema
// (internal/stats).
type BacklogStats struct {
	// Bytes / Records are the backlog's current retained size.
	Bytes   int64 `json:"repl_backlog_bytes" info:"Replication"`
	Records int64 `json:"repl_backlog_records" info:"Replication"`
	// Appended / Trimmed count records over the log's lifetime.
	Appended int64 `json:"repl_appended" info:"Replication,repl_backlog_appended"`
	Trimmed  int64 `json:"repl_trimmed" info:"Replication,repl_backlog_trimmed"`
	// Pins is the number of attached cursors currently deferring trims.
	Pins int `json:"repl_pins"`
}

// Log is the primary-side replication backlog: per-worker ordered record
// queues under one retention budget, with pinned cursors that defer tail
// truncation while a replica is attached.
type Log struct {
	id       string
	workers  int
	maxBytes int64

	mu    sync.Mutex
	q     [][]Record          // per-worker records, ascending GSN
	start []uint64            // floor[w]: records with GSN <= start[w] are trimmed
	last  []uint64            // highest appended GSN per worker
	pins  map[string][]uint64 // pin id -> per-worker cursor floors
	bytes int64
	recs  int64
	wake  chan struct{} // closed and replaced on every append

	appended atomic.Int64
	trimmed  atomic.Int64
}

// NewLog creates a backlog for a store with the given worker count.
// maxBytes <= 0 selects DefaultBacklogBytes.
func NewLog(workers int, maxBytes int64) *Log {
	if workers < 1 {
		workers = 1
	}
	if maxBytes <= 0 {
		maxBytes = DefaultBacklogBytes
	}
	return &Log{
		id:       NewID(),
		workers:  workers,
		maxBytes: maxBytes,
		q:        make([][]Record, workers),
		start:    make([]uint64, workers),
		last:     make([]uint64, workers),
		pins:     make(map[string][]uint64),
		wake:     make(chan struct{}),
	}
}

// ID reports the log's replication lineage ID.
func (l *Log) ID() string { return l.id }

// Workers reports the worker count the log was sized for.
func (l *Log) Workers() int { return l.workers }

// Append records one applied write batch. ops are encoded (copied) into
// the record, so the caller's slices are not retained. Called from the
// owning worker's goroutine, so per-worker GSNs arrive in ascending
// apply order.
func (l *Log) Append(worker int, gsn uint64, ops []kv.BatchOp) {
	rec := Record{Worker: worker, GSN: gsn, Payload: EncodeOps(ops)}
	l.mu.Lock()
	l.q[worker] = append(l.q[worker], rec)
	l.last[worker] = gsn
	l.bytes += rec.size()
	l.recs++
	l.appended.Add(1)
	l.trimLocked()
	wake := l.wake
	l.wake = make(chan struct{})
	l.mu.Unlock()
	close(wake)
}

// trimLocked evicts the oldest records until the budget holds, skipping
// records still covered by a pin: an attached replica's cursor defers
// truncation past it, even beyond the byte budget.
func (l *Log) trimLocked() {
	for l.bytes > l.maxBytes {
		// Oldest record across workers = smallest head GSN (GSNs are drawn
		// from one global counter, so cross-worker comparison orders by
		// apply time).
		w := -1
		var min uint64
		for i := range l.q {
			if len(l.q[i]) == 0 {
				continue
			}
			head := l.q[i][0].GSN
			if l.pinnedLocked(i, head) {
				continue
			}
			if w < 0 || head < min {
				w, min = i, head
			}
		}
		if w < 0 {
			return // everything left is pinned; budget yields to attachment
		}
		rec := l.q[w][0]
		l.q[w] = l.q[w][1:]
		l.start[w] = rec.GSN
		l.bytes -= rec.size()
		l.recs--
		l.trimmed.Add(1)
	}
}

// pinnedLocked reports whether worker w's record at gsn is protected by
// any pin (pin floor < gsn means the pinned replica still needs it).
func (l *Log) pinnedLocked(w int, gsn uint64) bool {
	for _, floors := range l.pins {
		if gsn > floors[w] {
			return true
		}
	}
	return false
}

// Pin attaches a cursor set that defers trimming: every record appended
// from now on (plus everything currently retained newer than each
// worker's current watermark) stays until the pin advances past it.
// Returns the pinned floors (the current per-worker watermarks).
func (l *Log) Pin(id string) []uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	floors := make([]uint64, l.workers)
	copy(floors, l.last)
	l.pins[id] = floors
	out := make([]uint64, l.workers)
	copy(out, floors)
	return out
}

// Advance moves a pin's floors forward (a replica acknowledged applying
// through these cursors). Floors never move backward.
func (l *Log) Advance(id string, cursors []uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	floors, ok := l.pins[id]
	if !ok {
		return
	}
	for w := 0; w < l.workers && w < len(cursors); w++ {
		if cursors[w] > floors[w] {
			floors[w] = cursors[w]
		}
	}
	l.trimLocked()
}

// SetPin rewinds or sets a pin's floors exactly (full-sync bootstrap: the
// checkpoint manifest's watermarks replace the attach-time floors).
// Unlike Advance it may move floors backward, but never below the trimmed
// tail — records already gone cannot be re-pinned.
func (l *Log) SetPin(id string, cursors []uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	floors, ok := l.pins[id]
	if !ok {
		return
	}
	for w := 0; w < l.workers && w < len(cursors); w++ {
		c := cursors[w]
		if c < l.start[w] {
			c = l.start[w]
		}
		floors[w] = c
	}
	l.trimLocked()
}

// Unpin detaches a cursor set; the retention budget alone governs the
// tail again.
func (l *Log) Unpin(id string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	delete(l.pins, id)
	l.trimLocked()
}

// Covers reports whether a partial sync from the given per-worker
// cursors can be served without a hole: every cursor must be at or above
// the trimmed floor and at or below the last appended GSN.
func (l *Log) Covers(cursors []uint64) bool {
	if len(cursors) != l.workers {
		return false
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for w, c := range cursors {
		if c < l.start[w] || c > l.last[w] {
			return false
		}
	}
	return true
}

// Since returns (copies of) every retained record of worker w with GSN >
// cursor, in apply order. ErrOutOfWindow reports a trimmed hole between
// the cursor and the retained tail.
func (l *Log) Since(w int, cursor uint64) ([]Record, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if cursor < l.start[w] {
		return nil, fmt.Errorf("%w: worker %d cursor %d < retained floor %d", ErrOutOfWindow, w, cursor, l.start[w])
	}
	q := l.q[w]
	// Records are ascending; find the first with GSN > cursor.
	lo, hi := 0, len(q)
	for lo < hi {
		mid := (lo + hi) / 2
		if q[mid].GSN > cursor {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if lo == len(q) {
		return nil, nil
	}
	out := make([]Record, len(q)-lo)
	copy(out, q[lo:])
	return out, nil
}

// Wait returns a channel closed at (or after) the next Append — the
// stream feeder's wake-up. Callers re-check Since after each wake.
func (l *Log) Wait() <-chan struct{} {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.wake
}

// LastGSN reports the highest appended GSN per worker.
func (l *Log) LastGSN() []uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]uint64, l.workers)
	copy(out, l.last)
	return out
}

// Stats snapshots the log's counters.
func (l *Log) Stats() BacklogStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return BacklogStats{
		Bytes:    l.bytes,
		Records:  l.recs,
		Appended: l.appended.Load(),
		Trimmed:  l.trimmed.Load(),
		Pins:     len(l.pins),
	}
}
