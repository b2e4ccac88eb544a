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

// Scrub implements kv.Scrubber: it re-verifies every block of the base
// checkpoint under the shared latch (which pins the generation — the
// checkpoint swap needs the write latch). The live journal is not
// re-read: its tail is being appended concurrently and every record is
// CRC-verified at the only moment its bytes are trusted, replay. An
// already-corrupt base gets a repair attempt from the RepairSource
// instead of a futile re-read.
func (d *DB) Scrub(ctx context.Context, lim kv.RateLimiter) (kv.ScrubResult, error) {
	var res kv.ScrubResult
	if cerr, baseOnly := d.corruption(); cerr != nil {
		if baseOnly && d.tryRepairBase() {
			res.FilesRepaired++
		}
		return res, nil
	}
	d.mu.RLock()
	if d.closed {
		d.mu.RUnlock()
		return res, kv.ErrClosed
	}
	base := d.base
	if base == nil {
		d.mu.RUnlock()
		return res, nil
	}
	if lim != nil {
		size := base.Size()
		d.mu.RUnlock()
		if err := lim.WaitN(ctx, int(size)); err != nil {
			return res, err
		}
		d.mu.RLock()
		if d.closed || d.base != base {
			// Reconciliation swapped the base while we waited; the new one
			// was just written and verified, skip this pass.
			d.mu.RUnlock()
			return res, nil
		}
	}
	n, err := base.Verify()
	d.mu.RUnlock()
	res.FilesScanned = 1
	res.BytesScanned = n
	if err == nil {
		return res, ctx.Err()
	}
	if !errors.Is(err, kv.ErrCorruption) {
		return res, err
	}
	res.CorruptionsFound++
	d.noteCorruption(err, true)
	if d.tryRepairBase() {
		res.FilesRepaired++
	}
	return res, nil
}

// tryRepairBase restores the base checkpoint from the RepairSource,
// reporting whether containment was lifted. The candidate bytes are
// verified end to end before they replace the damaged file.
func (d *DB) tryRepairBase() bool {
	src := d.opts.RepairSource
	if src == nil {
		return false
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return false
	}
	cerr, baseOnly := d.corruption()
	if cerr == nil || !baseOnly {
		return false // sound, or journal-corrupt (needs a full restore)
	}
	name := baseName(d.gen)
	data, ok := src.Fetch(name)
	if !ok {
		return false
	}
	fs := d.opts.FS
	path := ckptName(d.dir, d.gen)
	if sstable.VerifyImage(name, data) != nil || vfs.WriteFileAtomic(fs, path, data) != nil {
		return false
	}
	nf, err := fs.Open(path)
	if err != nil {
		return false
	}
	nr, err := sstable.OpenNamed(nf, nil, 0, name)
	if err != nil {
		nf.Close()
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
