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
// before WriteTo has copied them. The journal is append-only, so the
// captured [0, size) prefix stays a stable crash-consistent image while
// writes continue.

var _ kv.Checkpointer = (*DB)(nil)

// PrepareCheckpoint implements kv.Checkpointer.
func (d *DB) PrepareCheckpoint() (kv.CheckpointWriter, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil, kv.ErrClosed
	}
	d.Pin()
	return &ckptWriter{
		d:       d,
		gen:     d.gen,
		walSize: d.wal.Size(),
		hasBase: d.base != nil,
	}, nil
}

type ckptWriter struct {
	d        *DB
	gen      uint64
	walSize  int64
	hasBase  bool
	released bool
}

// WriteTo implements kv.CheckpointWriter.
func (w *ckptWriter) WriteTo(fs vfs.FS, dir string, seq uint64) ([]kv.CheckpointFile, error) {
	d := w.d
	if err := fs.MkdirAll(dir); err != nil {
		return nil, err
	}
	var files []kv.CheckpointFile
	var done kv.CheckpointStats // this checkpoint's share of the lifetime counters
	done.Checkpoints = 1

	// The checkpoint file is immutable per generation and generations
	// never repeat, so one already in the backup set is reusable as-is.
	if w.hasBase {
		name := fmt.Sprintf("ckpt-%06d.db", w.gen)
		files = append(files, kv.CheckpointFile{Name: name, Restore: name})
		if err := done.AddFile(d.opts.FS, ckptName(d.dir, w.gen), fs, dir+"/"+name); err != nil {
			return nil, err
		}
	}

	// Journal prefix and META carry the checkpoint sequence in their
	// backup names: they differ between checkpoints, and a crashed later
	// checkpoint must never touch files an earlier manifest references.
	jname := fmt.Sprintf("journal-%06d-ckpt%06d.log", w.gen, seq)
	if err := vfs.CopyPrefix(d.opts.FS, walName(d.dir, w.gen), fs, dir+"/"+jname, w.walSize); err != nil {
		return nil, err
	}
	done.FilesCopied++
	done.BytesCopied += w.walSize
	files = append(files, kv.CheckpointFile{Name: jname, Restore: fmt.Sprintf("journal-%06d.log", w.gen)})

	mname := fmt.Sprintf("META-ckpt%06d", seq)
	if err := vfs.WriteFile(fs, dir+"/"+mname, encodeMeta(w.gen)); err != nil {
		return nil, err
	}
	files = append(files, kv.CheckpointFile{Name: mname, Restore: "META"})

	d.Add(done)
	return files, nil
}

// Release implements kv.CheckpointWriter.
func (w *ckptWriter) Release() {
	if w.released {
		return
	}
	w.released = true
	w.d.Unpin(w.d.opts.FS)
}
