package lsm

import "p2kvs/internal/kv"

// Snapshot is a point-in-time read view of the instance. It implements
// the extension §4.5 of the paper sketches for read-committed isolation:
// "Each worker creates a snapshot of the instance before the WriteBatch
// is processed, and other read requests will access the snapshot to
// avoid dirty reads."
//
// Snapshots here pin only a sequence number plus the structures of the
// moment (memtables and the current version); because this engine's
// compactions drop versions shadowed at the *latest* sequence, a snapshot
// is guaranteed stable only until compaction rewrites the range — the
// same contract a RocksDB snapshot has against
// compaction-with-snapshots disabled. Suitable for the short-lived
// read-committed windows p2KVS needs; not for long-lived time travel.
type Snapshot struct {
	db  *DB
	seq uint64
	rs  *readState
}

// NewSnapshot captures the current read view.
func (d *DB) NewSnapshot() *Snapshot {
	rs, seq := d.readView()
	return &Snapshot{db: d, seq: seq, rs: rs}
}

// Seq exposes the snapshot's sequence number.
func (s *Snapshot) Seq() uint64 { return s.seq }

// Get reads the newest version visible at the snapshot.
func (s *Snapshot) Get(key []byte) ([]byte, error) {
	if s.db.closed.Load() {
		return nil, kv.ErrClosed
	}
	s.db.perf.gets.Add(1)
	return s.db.getAt(s.rs, s.seq, key)
}

// NewIterator scans the snapshot.
func (s *Snapshot) NewIterator() (kv.Iterator, error) {
	if s.db.closed.Load() {
		return nil, kv.ErrClosed
	}
	return s.db.newIterAt(s.rs, s.seq)
}

// Release drops the snapshot's references. (No refcounting is needed —
// Go's GC reclaims the pinned memtables once unreferenced — but Release
// is part of the API contract so callers are portable to engines that do
// refcount.)
func (s *Snapshot) Release() {
	s.rs = nil
	s.db = nil
}
