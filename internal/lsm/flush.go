package lsm

import (
	"bytes"

	"p2kvs/internal/ikey"
	"p2kvs/internal/manifest"
	"p2kvs/internal/sstable"
)

// flushLoop is the background minor-compaction thread (Figure 2 ③,
// "minor compaction"): it drains the immutable-memtable queue to L0.
func (d *DB) flushLoop() {
	defer d.bgWG.Done()
	for {
		select {
		case <-d.stopC:
			return
		case <-d.flushC:
			for d.flushOne() {
				select {
				case <-d.stopC:
					return
				default:
				}
			}
		}
	}
}

// flushOne writes the oldest immutable memtable to an L0 SSTable and
// retires its WAL, retrying transient failures with backoff. The memtable
// stays in the queue (and its WAL on disk) until a flush attempt
// succeeds, so a failed flush loses nothing. Returns true if it did work.
func (d *DB) flushOne() bool {
	d.mu.Lock()
	if len(d.imm) == 0 || d.g.Err() != nil {
		d.mu.Unlock()
		return false
	}
	h := d.imm[0]
	d.flushing++
	d.mu.Unlock()
	defer func() {
		d.mu.Lock()
		d.flushing--
		d.mu.Unlock()
	}()

	// Wait for in-flight writers that pinned this memtable before
	// rotation; without this barrier a late insert could be acked,
	// missed by the flush, and lost when the WAL is deleted.
	h.writers.Wait()

	for attempt := 0; ; attempt++ {
		err := d.doFlush(h)
		if err == nil {
			if attempt > 0 {
				d.clearBgFailure("flush")
			}
			break
		}
		if !d.noteBgFailure("flush", err, attempt) {
			return false // degraded or closing
		}
		d.perf.flushRetries.Add(1)
		if !d.backoffWait(attempt + 1) {
			return false // closing
		}
	}

	d.mu.Lock()
	d.imm = d.imm[1:]
	d.publishReadStateLocked()
	d.kick()
	d.cond.Broadcast()
	d.mu.Unlock()
	return true
}

func (d *DB) doFlush(h *memHandle) error {
	// The WAL is the only durable copy of this memtable until the flush
	// is committed in the manifest, so it is deleted strictly *after* a
	// successful LogAndApply — a failed or crash-interrupted flush must
	// leave the log for recovery.
	retireWAL := func() {
		if h.walw != nil {
			h.walw.Close()
			// Deferred while a checkpoint pin holds: the captured image may
			// still be copying this log's prefix.
			d.Remove(d.opts.FS, walName(d.dir, h.logNum))
		}
	}
	if d.opts.MemTableOnly || h.mem.Empty() {
		// Figure 8b mode (or an empty rotation): drop without IO, but
		// still advance the manifest's log number so recovery doesn't
		// look for the removed WAL.
		if err := d.applyEdit(&manifest.VersionEdit{
			HasLogNum: true, LogNum: h.logNum + 1,
			HasLastSeq: true, LastSeq: d.seq.Load(),
		}); err != nil {
			return err
		}
		retireWAL()
		return nil
	}

	num := d.vs.NewFileNum()
	f, err := d.opts.FS.Create(sstName(d.dir, num))
	if err != nil {
		return err
	}
	w := sstable.NewWriter(f, num)
	// The iterator yields user keys ascending, newest version first. As in
	// mergeFiles, only that newest version is written (a tombstone too:
	// older levels may hold the key). No reader needs the rest: a read
	// state that predates this flush still holds the memtable, and one
	// published after it pairs with a sequence newer than every entry here.
	var (
		lastUK []byte // aliases the memtable, which outlives the loop
		haveUK bool
	)
	it := h.mem.NewIterator()
	for it.SeekToFirst(); it.Valid(); it.Next() {
		uk := ikey.UserKey(it.Key())
		if haveUK && bytes.Equal(uk, lastUK) {
			continue // shadowed older version
		}
		lastUK, haveUK = uk, true
		if err := w.Add(it.Key(), it.Value()); err != nil {
			f.Close()
			d.opts.FS.Remove(sstName(d.dir, num))
			return err
		}
	}
	meta, err := w.Finish()
	if err != nil {
		f.Close()
		d.opts.FS.Remove(sstName(d.dir, num))
		return err
	}
	f.Close()

	d.perf.flushes.Add(1)
	d.perf.flushBytes.Add(meta.Size)

	if err := d.applyEdit(&manifest.VersionEdit{
		HasLogNum: true, LogNum: h.logNum + 1,
		HasLastSeq: true, LastSeq: d.seq.Load(),
		HasNextFile: true, NextFile: num + 1,
		Added: []manifest.AddedFile{{Level: 0, Meta: manifest.FileMeta{
			Num: meta.FileNum, Size: meta.Size, Entries: meta.Entries,
			Smallest: meta.Smallest, Largest: meta.Largest,
		}}},
	}, num); err != nil {
		return err
	}
	retireWAL()
	return nil
}
