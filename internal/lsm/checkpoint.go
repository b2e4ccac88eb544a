package lsm

import (
	"fmt"

	"p2kvs/internal/kv"
	"p2kvs/internal/manifest"
	"p2kvs/internal/vfs"
)

// This file implements the engine half of the store-wide online checkpoint
// (kv.Checkpointer). The capture is two-phase:
//
//   - PrepareCheckpoint runs while the accessing layer holds the worker at
//     a GSN barrier. It takes a pin and captures, under d.mu, a mutually
//     consistent (manifest snapshot, live-WAL prefix sizes) pair. No bulk
//     IO happens here — barrier time is writer-stall time.
//   - WriteTo runs with writes resumed. It hard-links the captured SSTs
//     (immutable once written, and the pin keeps compactions from deleting
//     them — kv.CheckpointState.Remove), copies the [0, size) prefix of each
//     captured WAL (WALs are append-only, so a prefix at a record boundary
//     is a stable crash-consistent image), and writes the captured
//     manifest snapshot as the image's trimmed MANIFEST.
//
// The pair is consistent because the pin is taken before either half is
// read: any flush/compaction edit that lands between the two reads only
// adds coverage (an SST whose WAL is also captured replays to identical
// entries at identical sequence numbers), and any file deletion those
// edits imply is parked until Release.

// walCapture records one live WAL's identity and the byte watermark of its
// completed records at capture time.
type walCapture struct {
	num  uint64
	size int64
}

var _ kv.Checkpointer = (*DB)(nil)

// PrepareCheckpoint implements kv.Checkpointer.
func (d *DB) PrepareCheckpoint() (kv.CheckpointWriter, error) {
	if d.closed.Load() {
		return nil, kv.ErrClosed
	}
	d.Pin()
	d.mu.Lock()
	// Nested manifest lock inside d.mu: same order as publishReadStateLocked.
	snap := d.vs.SnapshotEdit()
	var wals []walCapture
	for _, h := range d.imm {
		if h.walw != nil {
			wals = append(wals, walCapture{num: h.logNum, size: h.walw.Size()})
		}
	}
	if d.memH != nil && d.memH.walw != nil {
		wals = append(wals, walCapture{num: d.memH.logNum, size: d.memH.walw.Size()})
	}
	d.mu.Unlock()
	return &ckptWriter{d: d, snap: snap, wals: wals}, nil
}

type ckptWriter struct {
	d        *DB
	snap     *manifest.VersionEdit
	wals     []walCapture
	released bool
}

// WriteTo implements kv.CheckpointWriter.
func (w *ckptWriter) WriteTo(fs vfs.FS, dir string, seq uint64) ([]kv.CheckpointFile, error) {
	d := w.d
	if err := fs.MkdirAll(dir); err != nil {
		return nil, err
	}
	var files []kv.CheckpointFile
	done := kv.CheckpointStats{Checkpoints: 1} // this checkpoint's share of the lifetime counters

	// SSTs: immutable and uniquely numbered (file numbers are never
	// reused — MarkFileNumUsed), so a same-named file already in the
	// backup set is byte-identical and AddFile reuses it outright.
	for _, a := range w.snap.Added {
		name := fmt.Sprintf("%06d.sst", a.Meta.Num)
		files = append(files, kv.CheckpointFile{Name: name, Restore: name})
		if err := done.AddFile(d.opts.FS, sstName(d.dir, a.Meta.Num), fs, dir+"/"+name); err != nil {
			return nil, err
		}
	}

	// WAL prefixes. These change between checkpoints, so their backup
	// names embed the checkpoint sequence: a crashed later checkpoint can
	// never clobber a file an earlier CHECKPOINT manifest references.
	for _, wc := range w.wals {
		name := fmt.Sprintf("%06d-ckpt%06d.log", wc.num, seq)
		if err := vfs.CopyPrefix(d.opts.FS, walName(d.dir, wc.num), fs, dir+"/"+name, wc.size); err != nil {
			return nil, err
		}
		done.FilesCopied++
		done.BytesCopied += wc.size
		files = append(files, kv.CheckpointFile{Name: name, Restore: fmt.Sprintf("%06d.log", wc.num)})
	}

	// Trimmed MANIFEST: one snapshot record of the captured version.
	mname := fmt.Sprintf("MANIFEST-ckpt%06d", seq)
	mlog, err := manifest.Create(fs, dir+"/"+mname, w.snap)
	if err != nil {
		return nil, err
	}
	if err := mlog.Close(); err != nil {
		return nil, err
	}
	files = append(files, kv.CheckpointFile{Name: mname, Restore: "MANIFEST"})
	d.Add(done)
	return files, nil
}

// Release implements kv.CheckpointWriter: it drops the pin and executes
// any file deletions parked while it was held.
func (w *ckptWriter) Release() {
	if w.released {
		return
	}
	w.released = true
	w.d.Unpin(w.d.opts.FS)
}
