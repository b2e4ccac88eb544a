package lsm

import "p2kvs/internal/manifest"

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
// retires its WAL, retrying transient failures (retryBg). The memtable
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

	if !d.retryBg(&d.flushJob, func() error { return d.doFlush(h) }) {
		return false
	}
	d.mu.Lock()
	// Clear the slot, not only reslice past it: the backing array outlives
	// the pop until the next rotation reallocates it, and the slot would
	// keep the flushed memtable's arena and its deleted WAL's bytes alive.
	d.imm[0] = nil
	d.imm = d.imm[1:]
	d.publishReadStateLocked()
	d.kick()
	d.cond.Broadcast()
	d.mu.Unlock()
	return true
}

// doFlush writes one memtable to one L0 table (writeTables: tombstones
// kept, older levels may hold their keys; no split, since the L0 file count
// drives compaction) and installs it with the manifest's log number past
// h's WAL. Figure 8b mode and an empty rotation write no table and only
// advance the log number, so recovery does not look for the removed WAL.
func (d *DB) doFlush(h *memHandle) error {
	edit := manifest.VersionEdit{HasLogNum: true, LogNum: h.logNum + 1, HasLastSeq: true}
	if !d.opts.MemTableOnly && !h.mem.Empty() {
		outputs, err := d.writeTables(h.mem.NewIterator(), false, 0)
		if err != nil {
			return err
		}
		m := outputs[0] // one table: no split, and no entry is dropped
		d.perf.flushes.Add(1)
		d.perf.flushBytes.Add(m.Size)
		edit.HasNextFile, edit.NextFile = true, m.Num+1
		edit.Added = []manifest.AddedFile{{Level: 0, Meta: m}}
	}
	edit.LastSeq = d.seq.Load()
	// The WAL is the only durable copy of this memtable until the flush
	// is committed in the manifest, so it is deleted strictly *after* a
	// successful applyEdit — a failed or crash-interrupted flush must
	// leave the log for recovery.
	if err := d.applyEdit(&edit); err != nil {
		return err
	}
	if h.walw != nil {
		h.walw.Close()
		// Deferred while a checkpoint pin holds: the captured image may
		// still be copying this log's prefix.
		d.Remove(d.opts.FS, walName(d.dir, h.logNum))
	}
	return nil
}
