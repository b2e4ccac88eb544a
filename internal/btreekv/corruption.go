package btreekv

import (
	"context"
	"errors"
	"fmt"

	"p2kvs/internal/kv"
	"p2kvs/internal/sstable"
	"p2kvs/internal/vfs"
)

// At-rest corruption containment (DESIGN.md §12).
//
// The engine's durable state is two files: the base checkpoint (an SSTable,
// verified block-by-block by the v2 format) and the journal (every record
// CRC-checked by the WAL layer; a complete record failing its CRC is
// reported, not silently truncated). The two corrupt differently:
//
//   - Corrupt BASE, intact journal: the dirty tree is complete and newer
//     than the base, so dirty hits (including tombstones) still serve
//     correct answers. Dirty misses cannot prove absence or fetch the base
//     version — they fail with kv.ErrCorruption. "Read-only-minus".
//   - Corrupt JOURNAL: the replayed dirty tree is a prefix — any key may
//     have lost its newest version, so even a base hit could be stale.
//     Every read fails with kv.ErrCorruption until the shard is restored.
//
// Either way writes degrade (through the engine guard, like a full disk):
// appending to a shard whose recovered state is unsound only widens the
// blast radius. Repair: Scrub re-fetches the base from the RepairSource
// (the newest backup generation), re-verifies it end to end and swaps it
// in; journal corruption is only curable by a full shard restore.

func baseName(gen uint64) string { return fmt.Sprintf("ckpt-%06d.db", gen) }

// noteCorruption records a detected corruption. baseOnly marks the
// base-corrupt/journal-intact case where dirty hits keep serving. Safe to
// call from read paths (own mutex, not the store latch).
func (d *DB) noteCorruption(err error, baseOnly bool) {
	d.g.NoteCorruption(err)
	d.corrMu.Lock()
	if d.corrErr == nil {
		d.corrErr = err
		d.corrBaseOnly = baseOnly
	} else if !baseOnly {
		// Journal corruption supersedes base-only containment.
		d.corrBaseOnly = false
	}
	d.corrMu.Unlock()
	// Writes into a shard whose state is unsound only widen the blast
	// radius. Recorded first, degraded second: a Resume in between
	// re-degrades from the record.
	d.g.Quarantined.Store(1) // the one base/journal under containment
	d.g.Degrade("integrity check", err)
}

// corruption returns the active corruption error (nil when sound) and
// whether containment is base-only.
func (d *DB) corruption() (error, bool) {
	d.corrMu.Lock()
	defer d.corrMu.Unlock()
	return d.corrErr, d.corrBaseOnly
}

var _ kv.Scrubber = (*DB)(nil)

// Scrub implements kv.Scrubber through kv.ScrubFiles over the one immutable
// file, the base checkpoint; an already-corrupt base gets a repair attempt
// instead of a futile re-read. The live journal is not re-read: its tail is
// being appended concurrently and every record is CRC-verified at the only
// moment its bytes are trusted, replay.
func (d *DB) Scrub(ctx context.Context, lim kv.RateLimiter) (kv.ScrubResult, error) {
	return kv.ScrubFiles(ctx, lim, d.scrubList, d.scrubVerify, d.repairBase)
}

func (d *DB) scrubList() ([]kv.ScrubFile, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if d.closed {
		return nil, kv.ErrClosed
	}
	f := kv.ScrubFile{Name: baseName(d.gen), Num: d.gen}
	switch cerr, baseOnly := d.corruption(); {
	case cerr != nil && !baseOnly:
		return nil, nil // a corrupt journal needs a full restore
	case cerr != nil:
		f.Quarantined = true
	case d.base == nil:
		return nil, nil
	default:
		f.Size = d.base.Size()
	}
	return []kv.ScrubFile{f}, nil
}

// scrubVerify re-verifies every block of the base under the shared latch,
// which pins the generation (a checkpoint swap needs the write latch).
func (d *DB) scrubVerify(f kv.ScrubFile) (int64, error) {
	d.mu.RLock()
	if d.closed || d.gen != f.Num || d.base == nil {
		d.mu.RUnlock()
		return 0, vfs.ErrNotExist // closed, or retired by a checkpoint
	}
	n, err := d.base.Verify()
	d.mu.RUnlock()
	if errors.Is(err, kv.ErrCorruption) {
		d.noteCorruption(err, true)
	}
	return n, err
}

// repairBase swaps in the base's verified backup copy and lifts the
// containment, reporting whether it did.
func (d *DB) repairBase(f kv.ScrubFile) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if cerr, baseOnly := d.corruption(); d.closed || d.gen != f.Num || cerr == nil || !baseOnly {
		return false // gone, sound, or journal-corrupt (needs a full restore)
	}
	if !kv.InstallRepair(d.opts.RepairSource, f.Name, sstable.VerifyImage, d.opts.FS, ckptName(d.dir, d.gen)) {
		return false
	}
	nr, err := d.openBase(d.gen)
	if err != nil {
		return false
	}
	if d.base != nil {
		d.base.Close()
	}
	d.base = nr
	d.corrMu.Lock()
	d.corrErr = nil
	d.corrBaseOnly = false
	d.corrMu.Unlock()
	// Lift the write block iff corruption was what installed it.
	if errors.Is(d.g.Err(), kv.ErrCorruption) {
		d.g.Clear()
	}
	d.g.Quarantined.Store(0)
	d.g.Repaired.Add(1)
	return true
}
