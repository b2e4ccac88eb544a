package btreekv

import (
	"fmt"

	"p2kvs/internal/kv"
	"p2kvs/internal/vfs"
)

// Online backup (kv.Checkpointer). The engine's durable state at any
// instant is (checkpoint file of the current generation, journal prefix):
// PrepareCheckpoint captures the generation and the journal's byte
// watermark under the store latch — no IO — and pins the generation so a
// concurrent reconciliation (checkpointLocked) cannot delete its files
// before the image is written. The journal is append-only, so the captured
// [0, size) prefix stays a stable crash-consistent image while writes
// continue.

var _ kv.Checkpointer = (*DB)(nil)

// PrepareCheckpoint implements kv.Checkpointer.
func (d *DB) PrepareCheckpoint() (kv.CheckpointImage, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return kv.CheckpointImage{}, kv.ErrClosed
	}
	d.Pin()
	gen := d.gen
	img := kv.CheckpointImage{FS: d.opts.FS, Release: func() { d.Unpin(d.opts.FS) }}
	// The checkpoint file is immutable per generation and generations
	// never repeat, so one already in the backup set is this one.
	if d.base != nil {
		img.Files = append(img.Files, kv.CheckpointFile{Name: baseName(gen), Path: ckptName(d.dir, gen), Whole: true})
	}
	img.Files = append(img.Files,
		kv.CheckpointFile{Name: fmt.Sprintf("journal-%06d.log", gen), Path: walName(d.dir, gen), Size: d.wal.Size()},
		kv.CheckpointFile{Name: "META", Write: func(fs vfs.FS, path string) error {
			return vfs.WriteFile(fs, path, encodeMeta(gen))
		}})
	return img, nil
}
