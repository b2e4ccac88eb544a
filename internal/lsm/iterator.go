package lsm

import (
	"bytes"
	"io"

	"p2kvs/internal/ikey"
	"p2kvs/internal/kv"
	"p2kvs/internal/manifest"
	"p2kvs/internal/sstable"
)

// tableIterAdapter lifts sstable.Iter and holds its reader: a compaction's
// private reader, closed with the iterator, or a scan's reference on the
// table cache's, dropped with it (so compaction evicting the file cannot
// close the handle under a live scan).
type tableIterAdapter struct {
	*sstable.Iter
	r io.Closer
}

func (t tableIterAdapter) Close() error {
	t.Iter.Close()
	return t.r.Close()
}

// ---------------------------------------------------------------------------
// DB iterator (user-facing)
// ---------------------------------------------------------------------------

// dbIter collapses internal versions into live user keys at a snapshot.
type dbIter struct {
	db    *DB
	merge *kv.Merge
	snap  uint64

	key    []byte
	value  []byte
	valid  bool
	err    error
	skipUK []byte // user key whose remaining (older) versions are shadowed
	skip   bool   // skipUK is set (it may be the empty key)
}

var _ kv.Iterator = (*dbIter)(nil)

// newIterAt builds an internal iterator forest for a read state.
func (d *DB) newIterAt(rs *readState, seq uint64) (*dbIter, error) {
	children := []kv.Iterator{rs.mem.NewIterator()}
	for _, m := range rs.imms {
		children = append(children, m.NewIterator())
	}
	addTable := func(fm *manifest.FileMeta) error {
		// A scan covers every file's range, a quarantined one's included.
		if qerr := d.quarErr(fm.Num); qerr != nil {
			return qerr
		}
		t, err := d.tcache.acquire(fm.Num)
		if err != nil {
			d.noteCorruption(err)
			return err
		}
		children = append(children, tableIterAdapter{t.NewIterator(), t})
		return nil
	}
	for level := 0; level < manifest.NumLevels; level++ {
		for _, fm := range rs.ver.Levels[level] {
			if err := addTable(fm); err != nil {
				closeAll(children)
				return nil, err
			}
		}
	}
	return &dbIter{db: d, merge: kv.NewMerge(ikey.Compare, children), snap: seq}, nil
}

// NewIterator implements kv.Engine.
func (d *DB) NewIterator() (kv.Iterator, error) {
	if d.closed.Load() {
		return nil, kv.ErrClosed
	}
	var lastErr error
	for attempt := 0; attempt < 4; attempt++ {
		rs, seq := d.readView()
		it, err := d.newIterAt(rs, seq)
		if !isStaleFileErr(err) {
			return it, err
		}
		lastErr = err
	}
	return nil, lastErr
}

// advance walks the merged stream to the next live, visible user key.
func (it *dbIter) advance() {
	it.valid = false
	for it.merge.Valid() {
		uk, seq, kind, err := ikey.Decode(it.merge.Key())
		if err != nil {
			it.err = err
			return
		}
		if seq > it.snap {
			it.merge.Next()
			continue
		}
		if it.skip && bytes.Equal(uk, it.skipUK) {
			// Older version of a key we already surfaced or tombstoned.
			it.merge.Next()
			continue
		}
		it.skipUK, it.skip = append(it.skipUK[:0], uk...), true
		if kind == ikey.KindDelete {
			it.merge.Next()
			continue
		}
		it.key = append(it.key[:0], uk...)
		it.value = append(it.value[:0], it.merge.Value()...)
		it.valid = true
		return
	}
	if err := it.merge.Error(); err != nil && it.err == nil {
		it.err = err
		it.db.noteCorruption(err) // a scan quarantines what it trips over, as Get does
	}
}

// SeekToFirst implements kv.Iterator.
func (it *dbIter) SeekToFirst() {
	it.skip = false
	it.merge.SeekToFirst()
	it.advance()
}

// Seek implements kv.Iterator.
func (it *dbIter) Seek(target []byte) {
	it.skip = false
	it.merge.Seek(ikey.SeekKey(target, it.snap))
	it.advance()
}

// Next implements kv.Iterator.
func (it *dbIter) Next() {
	if !it.valid {
		return
	}
	it.merge.Next()
	it.advance()
}

// Valid implements kv.Iterator.
func (it *dbIter) Valid() bool { return it.valid }

// Key implements kv.Iterator.
func (it *dbIter) Key() []byte { return it.key }

// Value implements kv.Iterator.
func (it *dbIter) Value() []byte { return it.value }

// Error implements kv.Iterator.
func (it *dbIter) Error() error { return it.err }

// Close implements kv.Iterator.
func (it *dbIter) Close() error { return it.merge.Close() }
