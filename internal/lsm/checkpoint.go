package lsm

import (
	"fmt"

	"p2kvs/internal/kv"
	"p2kvs/internal/manifest"
	"p2kvs/internal/vfs"
)

// This file implements the engine half of the store-wide online checkpoint
// (kv.Checkpointer). PrepareCheckpoint runs while the accessing layer holds
// the worker at a GSN barrier. It takes a pin and captures, under d.mu, a
// mutually consistent (manifest snapshot, live-WAL prefix sizes) pair — no
// bulk IO, barrier time is writer-stall time. The image it describes is
// the captured SSTs (immutable once written, and the pin keeps compactions
// from deleting them — kv.CheckpointState.Remove), the [0, size) prefix of
// each captured WAL, and the manifest snapshot as the image's trimmed
// MANIFEST.
//
// The pair is consistent because the pin is taken before either half is
// read: any flush/compaction edit that lands between the two reads only
// adds coverage (an SST whose WAL is also captured replays to identical
// entries at identical sequence numbers), and any file deletion those
// edits imply is parked until Release.

var _ kv.Checkpointer = (*DB)(nil)

// PrepareCheckpoint implements kv.Checkpointer.
func (d *DB) PrepareCheckpoint() (kv.CheckpointImage, error) {
	if d.closed.Load() {
		return kv.CheckpointImage{}, kv.ErrClosed
	}
	d.Pin()
	img := kv.CheckpointImage{FS: d.opts.FS, Release: func() { d.Unpin(d.opts.FS) }}
	addWAL := func(h *memHandle) {
		if h != nil && h.walw != nil {
			img.Files = append(img.Files, kv.CheckpointFile{
				Name: fmt.Sprintf("%06d.log", h.logNum), Path: walName(d.dir, h.logNum), Size: h.walw.Size(),
			})
		}
	}
	d.mu.Lock()
	// Nested manifest lock inside d.mu: same order as publishReadStateLocked.
	snap := d.vs.SnapshotEdit()
	for _, h := range d.imm {
		addWAL(h)
	}
	addWAL(d.memH)
	d.mu.Unlock()
	// SSTs are uniquely numbered (file numbers are never reused —
	// MarkFileNumUsed), so one already in the backup set is this one.
	for _, a := range snap.Added {
		name := fmt.Sprintf("%06d.sst", a.Meta.Num)
		img.Files = append(img.Files, kv.CheckpointFile{Name: name, Path: sstName(d.dir, a.Meta.Num), Whole: true})
	}
	img.Files = append(img.Files, kv.CheckpointFile{Name: "MANIFEST", Write: func(fs vfs.FS, path string) error {
		mlog, err := manifest.Create(fs, path, snap)
		if err != nil {
			return err
		}
		return mlog.Close()
	}})
	return img, nil
}
