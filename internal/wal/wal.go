// Package wal implements the write-ahead log with the RocksDB-style
// group-logging protocol the paper analyzes (§2.2, Figure 3): concurrent
// appenders form a group; one is elected leader, aggregates every group
// member's record into a single log IO, and wakes the followers when the
// write completes. The time followers spend parked — and the time the
// leader spends waking them — is the paper's "WAL lock" latency component
// (Figure 6), so Append meters it separately from the log IO itself.
//
// A log opens with an 8-byte magic preamble ("p2wal-2\n"), then records
// (little endian):
//
//	crc32(hdr[4:]) u32 | crc32(payload) u32 | len(payload) u32 | gsn u64 | payload
//
// The leading header checksum covers the payload checksum, the length and
// the GSN, so no field a replay decision depends on is ever trusted
// unverified: at-rest rot anywhere in a committed record — header or
// payload — is detected and reported instead of being mistaken for a
// crash-torn tail. It is the only format ReadAll parses: a file that does
// not open with the preamble (the headerless layout of before PR 7, or a
// preamble that rotted) is refused as corrupt, never guessed at.
//
// The gsn field carries p2KVS's Global Sequence Number for cross-instance
// transaction rollback (§4.5); engines running standalone write 0.
package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sync"
	"sync/atomic"
	"time"

	"p2kvs/internal/kv"
	"p2kvs/internal/vfs"
)

const headerLen = 20 // hcrc u32 | pcrc u32 | plen u32 | gsn u64

// A leader aggregates at most maxGroupCount records and about maxGroupBytes
// of payload into one log IO (RocksDB's defaults).
const (
	maxGroupBytes = 1 << 20
	maxGroupCount = 1024
)

// magic opens every log. The first write carries it, so a file that holds
// any record holds the whole preamble.
var magic = []byte("p2wal-2\n")

// SyncPolicy selects when the log fsyncs, i.e. what an acknowledged
// append guarantees if the process dies. See DESIGN.md §11 for the full
// contract.
type SyncPolicy int

const (
	// PolicyNever never fsyncs on the append path (RocksDB async
	// logging, the paper's default): an acked append survives process
	// death only once something else — rotation, Flush, Close — synced
	// the file. Zero value.
	PolicyNever SyncPolicy = iota
	// PolicyInterval fsyncs lazily on the append path whenever
	// Options.SyncEvery has elapsed since the last sync: a crash loses
	// at most the appends of the final interval.
	PolicyInterval
	// PolicyCommit fsyncs before any append in the group is
	// acknowledged: every acked append survives SIGKILL. The group
	// leader performs one fsync for the whole group, so the cost
	// amortizes across the OBM batch exactly like the write itself.
	PolicyCommit
)

func (p SyncPolicy) String() string {
	switch p {
	case PolicyNever:
		return "never"
	case PolicyInterval:
		return "interval"
	case PolicyCommit:
		return "commit"
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// Options configures a Writer.
type Options struct {
	// Policy selects the durability policy (default PolicyNever).
	Policy SyncPolicy
	// SyncEvery bounds durability staleness under PolicyInterval
	// (default 100ms). Ignored by the other policies.
	SyncEvery time.Duration
	// PerRecordCost / PerByteCost model the serialized host software
	// path of logging — encoding records, checksumming, the kernel IO
	// stack — which the leader performs for the whole group (§3.3: this
	// is the CPU work that overloads a core under small-KV writes). The
	// simulated-time benchmarks set these to the real-world cost times
	// the device time scale; production use leaves them zero (the real
	// CPU path is the model).
	PerRecordCost time.Duration
	PerByteCost   time.Duration
}

// Stats aggregates the write-path timing the paper's Figure 6 plots.
type Stats struct {
	Appends   int64
	GroupIOs  int64         // actual log writes (after aggregation)
	Bytes     int64         // payload bytes appended
	IOTime    time.Duration // "WAL": encode+write(+sync), leader-side
	LockTime  time.Duration // "WAL lock": queueing + follower parking + wakeup
	GroupSize int64         // summed group sizes (avg = GroupSize/GroupIOs)
}

type waiter struct {
	gsn     uint64
	payload []byte
	done    bool
	err     error
}

// Writer is a concurrent-safe WAL appender.
type Writer struct {
	opts Options
	f    vfs.File

	mu      sync.Mutex
	cond    *sync.Cond
	pending []*waiter
	writing bool
	closed  bool
	tainted bool

	// size is the end of the last completed write. The one writer in flight
	// advances it; Size reads it without the lock.
	size atomic.Int64

	// lastSync is only touched by the one writer in flight, so it needs no
	// extra synchronization.
	lastSync time.Time

	appends  atomic.Int64
	groupIOs atomic.Int64
	bytes    atomic.Int64
	ioNs     atomic.Int64
	lockNs   atomic.Int64
	groupSum atomic.Int64

	// Leader scratch: the encoded group and its members. Only the one
	// writer in flight (mu held, or writing set) touches them.
	buf   []byte
	group []*waiter
}

// NewWriter starts a log in f.
func NewWriter(f vfs.File, opts Options) *Writer {
	if opts.Policy == PolicyInterval && opts.SyncEvery <= 0 {
		opts.SyncEvery = 100 * time.Millisecond
	}
	w := &Writer{opts: opts, f: f, lastSync: time.Now()}
	w.cond = sync.NewCond(&w.mu)
	return w
}

// ErrClosed is returned by appends on a closed writer.
var ErrClosed = errors.New("wal: closed")

// ErrTainted is returned by appends on a tainted writer: an earlier write
// failed, possibly leaving a torn record on disk, so any record appended
// after it would sit behind an unreadable tail and be silently dropped at
// replay. The owner must rotate to a fresh log.
var ErrTainted = errors.New("wal: log tainted by failed write")

// Append durably (subject to Options.Policy) appends one record and blocks
// until it is written. Safe for concurrent use: concurrent appenders form a
// group whose leader writes every member's record in one IO.
func (w *Writer) Append(gsn uint64, payload []byte) error {
	w.appends.Add(1)
	w.bytes.Add(int64(len(payload)))
	enqueue := time.Now()
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return ErrClosed
	}
	if w.tainted {
		w.mu.Unlock()
		return ErrTainted
	}
	if !w.writing && len(w.pending) == 0 {
		// Uncontended: nobody to follow and nobody to lead — the only case
		// a log with one appender (a p2KVS worker's, or one appending under
		// its owner's mutex: MANIFEST, TXNLOG, a journal) ever sees. Write as a
		// group of one without queueing a waiter; appenders that arrive
		// meanwhile queue behind writing exactly as behind any leader.
		w.writing = true
		w.mu.Unlock()
		w.lockNs.Add(int64(time.Since(enqueue)))
		err := w.writeRecords(gsn, payload, nil)
		w.finishGroup(nil, err)
		return err
	}
	wt := &waiter{gsn: gsn, payload: payload}
	w.pending = append(w.pending, wt)
	// Park until either a leader completed our write, or we are at the
	// head of the queue with no leader in flight — then we lead.
	for !wt.done && (w.writing || w.pending[0] != wt) {
		w.cond.Wait()
	}
	if wt.done {
		// Follower path: the whole wait was group-logging synchronization.
		w.mu.Unlock()
		w.lockNs.Add(int64(time.Since(enqueue)))
		return wt.err
	}
	if w.tainted {
		// A leader failed while we were parked. Step out of the queue and
		// let the next head observe the taint too.
		for i, m := range w.pending {
			if m == wt {
				w.pending = append(w.pending[:i], w.pending[i+1:]...)
				break
			}
		}
		w.cond.Broadcast()
		w.mu.Unlock()
		w.lockNs.Add(int64(time.Since(enqueue)))
		return ErrTainted
	}
	// Leader path: claim a group bounded by count and bytes. The group
	// moves to the leader's own slice and the queue closes up in place, so
	// pending keeps its capacity from one group to the next.
	n, bytes := 0, 0
	for n < len(w.pending) && n < maxGroupCount && bytes < maxGroupBytes {
		bytes += len(w.pending[n].payload)
		n++
	}
	w.group = append(w.group[:0], w.pending[:n]...)
	group := w.group
	rest := copy(w.pending, w.pending[n:])
	clear(w.pending[rest:])
	w.pending = w.pending[:rest]
	w.writing = true
	w.mu.Unlock()
	w.lockNs.Add(int64(time.Since(enqueue)))

	err := w.writeRecords(0, nil, group)
	w.finishGroup(group, err)
	return err
}

// finishGroup ends a leader's turn: it wakes the group's followers and
// lets the next queue head lead. The time spent doing so is lock overhead
// (the paper's third cause: "the more threads in the group, the more CPU
// time is used to unlock the follower threads").
func (w *Writer) finishGroup(group []*waiter, err error) {
	wakeStart := time.Now()
	w.mu.Lock()
	if err != nil {
		// The group write may have landed a torn record; no later append
		// may use this log (it would be unreadable past the tear).
		w.tainted = true
	}
	for _, m := range group {
		m.done = true
		m.err = err
	}
	clear(group) // the scratch must not keep the waiters, or their payloads, alive
	w.writing = false
	w.cond.Broadcast()
	w.mu.Unlock()
	w.lockNs.Add(int64(time.Since(wakeStart)))
}

// addRecord encodes one record behind those already in the buffer. The
// header is built where it will be written from, so no part of it leaves
// the buffer for the checksum to read.
func (w *Writer) addRecord(gsn uint64, payload []byte) {
	off := len(w.buf)
	var zero [headerLen]byte
	w.buf = append(w.buf, zero[:]...)
	w.buf = append(w.buf, payload...)
	hdr := w.buf[off : off+headerLen]
	binary.LittleEndian.PutUint32(hdr[4:], crc32.ChecksumIEEE(payload))
	binary.LittleEndian.PutUint32(hdr[8:], uint32(len(payload)))
	binary.LittleEndian.PutUint64(hdr[12:], gsn)
	binary.LittleEndian.PutUint32(hdr[0:], crc32.ChecksumIEEE(hdr[4:]))
}

// writeRecords encodes a claimed group — or, with a nil group, the one
// record (gsn, payload) — into one buffer and performs one write. The caller
// is the only writer in flight: it set writing.
func (w *Writer) writeRecords(gsn uint64, payload []byte, group []*waiter) error {
	ioStart := time.Now()
	w.buf = w.buf[:0]
	if w.size.Load() == 0 {
		// First bytes of the log: the preamble rides in the same write as
		// the first record, so a torn first write still leaves either
		// nothing or a well-formed prefix.
		w.buf = append(w.buf, magic...)
	}
	n := 1
	if group == nil {
		w.addRecord(gsn, payload)
	} else {
		n = len(group)
		for _, m := range group {
			w.addRecord(m.gsn, m.payload)
		}
	}
	err := w.flush(n)
	w.ioNs.Add(int64(time.Since(ioStart)))
	w.groupIOs.Add(1)
	w.groupSum.Add(int64(n))
	return err
}

// flush performs the one write (and the policy's sync) for the n records
// in the buffer.
func (w *Writer) flush(n int) error {
	if w.opts.PerRecordCost > 0 || w.opts.PerByteCost > 0 {
		// Simulated-time model of the leader's serialized software path.
		cost := time.Duration(n)*w.opts.PerRecordCost +
			time.Duration(len(w.buf))*w.opts.PerByteCost
		if cost > 0 {
			time.Sleep(cost)
		}
	}
	if _, err := w.f.Write(w.buf); err != nil {
		return err
	}
	w.size.Add(int64(len(w.buf)))
	switch w.opts.Policy {
	case PolicyCommit:
		// One fsync for the whole group: the leader pays it once and
		// every member's ack then implies durability.
		if err := w.f.Sync(); err != nil {
			return err
		}
		w.lastSync = time.Now()
	case PolicyInterval:
		if now := time.Now(); now.Sub(w.lastSync) >= w.opts.SyncEvery {
			if err := w.f.Sync(); err != nil {
				return err
			}
			w.lastSync = now
		}
	}
	return nil
}

// Sync flushes the log to stable storage.
func (w *Writer) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return ErrClosed
	}
	return w.f.Sync()
}

// Tainted reports whether a failed write has poisoned this log. A tainted
// log accepts no further appends; rotate to a fresh file.
func (w *Writer) Tainted() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.tainted
}

// Size returns the bytes written so far: the end of the last completed
// write, which is a record boundary. It may be read while appends run.
func (w *Writer) Size() int64 { return w.size.Load() }

// Stats snapshots the timing counters.
func (w *Writer) Stats() Stats {
	return Stats{
		Appends:   w.appends.Load(),
		GroupIOs:  w.groupIOs.Load(),
		Bytes:     w.bytes.Load(),
		IOTime:    time.Duration(w.ioNs.Load()),
		LockTime:  time.Duration(w.lockNs.Load()),
		GroupSize: w.groupSum.Load(),
	}
}

// Close syncs and closes the log file.
func (w *Writer) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	w.closed = true
	w.cond.Broadcast()
	if err := w.f.Sync(); err != nil {
		w.f.Close()
		return err
	}
	return w.f.Close()
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

// Record is one replayed WAL entry.
type Record struct {
	GSN     uint64
	Payload []byte
}

// ReadAll replays the log file name on fs. An incomplete record at the tail ends the
// replay silently — the standard crash-truncation semantics: a torn tail
// means the record never committed (every writer path appends prefixes,
// so a crash or torn write can only shorten the file). A COMPLETE record
// or header whose checksum fails is different: all its bytes are present,
// so they were written and then altered at rest. That is surfaced as a
// kv.CorruptionError alongside the valid prefix, letting callers
// distinguish "lost the unacknowledged tail" (fine) from "lost committed
// records to bit rot" (must not be served as a silent truncation).
//
// Every header is self-checksummed, so a complete header that fails its
// checksum is rot, never a tear (writes are prefix-atomic: bytes that are
// present were written as intended). Truncation — a partial preamble, a
// partial header, or a payload running past EOF under a VERIFIED header —
// is the only crash artifact and the only silent exit. A file whose first
// bytes are not the preamble is not a log this reader knows: corruption.
func ReadAll(fs vfs.FS, name string) ([]Record, error) {
	data, err := vfs.ReadFile(fs, name)
	if err != nil {
		return nil, err
	}
	if n := min(len(data), len(magic)); !bytes.Equal(data[:n], magic[:n]) {
		return nil, &kv.CorruptionError{
			Offset: 0,
			Detail: "wal: file does not open with the log preamble (damaged, or an unsupported format)",
		}
	}
	var recs []Record
	off := len(magic)
	for off+headerLen <= len(data) {
		hdr := data[off : off+headerLen]
		if crc32.ChecksumIEEE(hdr[4:]) != binary.LittleEndian.Uint32(hdr) {
			return recs, &kv.CorruptionError{
				Offset: int64(off),
				Detail: "wal: record header checksum mismatch",
			}
		}
		pcrc := binary.LittleEndian.Uint32(hdr[4:])
		plen := int(binary.LittleEndian.Uint32(hdr[8:]))
		gsn := binary.LittleEndian.Uint64(hdr[12:])
		start := off + headerLen
		if start+plen > len(data) {
			break // verified header, missing payload bytes: torn tail
		}
		payload := data[start : start+plen]
		if crc32.ChecksumIEEE(payload) != pcrc {
			return recs, &kv.CorruptionError{
				Offset: int64(off),
				Detail: "wal: record checksum mismatch on a complete record",
			}
		}
		recs = append(recs, Record{GSN: gsn, Payload: append([]byte(nil), payload...)})
		off = start + plen
	}
	return recs, nil
}
