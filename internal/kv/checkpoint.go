package kv

import (
	"fmt"
	"sync"

	"p2kvs/internal/vfs"
)

// CheckpointImage is an engine's checkpoint as PrepareCheckpoint describes
// it: the files that make up the image, read from FS, and the pin that keeps
// them there. Materialize writes it out.
type CheckpointImage struct {
	FS    vfs.FS
	Files []CheckpointFile
	// Release drops the pin PrepareCheckpoint took; nil when nothing is
	// pinned. The caller calls it exactly once, after Materialize or
	// instead of it.
	Release func()
}

// CheckpointFile is one file of a checkpoint image. Name is its path
// relative to the engine's data directory, where a restore puts it back.
// Its content comes from exactly one source:
//   - Whole: Path, an immutable and uniquely named file, entire;
//   - Write: whatever Write puts at the path it is given;
//   - otherwise: the [0, Size) prefix of Path, an append-only file (a
//     prefix at a record boundary stays a crash-consistent image while
//     the file grows).
type CheckpointFile struct {
	Name  string
	Path  string
	Whole bool
	Size  int64
	Write func(fs vfs.FS, path string) error
}

// Materialize writes the image into dir on fs as checkpoint seq of a backup
// set and returns the name each file got in dir, in Files order. A whole
// file keeps its name and enters through AddFile: reused, linked or copied.
// Every other file differs between checkpoints, so its name gets
// -ckptSSSSSS: a crashed later checkpoint can never clobber a file an
// earlier manifest references. Each of those counts as one file copied,
// with its bytes.
func (img CheckpointImage) Materialize(fs vfs.FS, dir string, seq uint64, st *CheckpointStats) ([]string, error) {
	if err := fs.MkdirAll(dir); err != nil {
		return nil, err
	}
	names := make([]string, len(img.Files))
	for i, f := range img.Files {
		if f.Whole {
			names[i] = f.Name
			if err := st.AddFile(img.FS, f.Path, fs, dir+"/"+f.Name); err != nil {
				return nil, err
			}
			continue
		}
		names[i] = fmt.Sprintf("%s-ckpt%06d", f.Name, seq)
		dst := dir + "/" + names[i]
		n := f.Size
		if f.Write == nil {
			if err := vfs.CopyPrefix(img.FS, f.Path, fs, dst, n); err != nil {
				return nil, err
			}
		} else {
			if err := f.Write(fs, dst); err != nil {
				return nil, err
			}
			out, err := fs.Open(dst)
			if err != nil {
				return nil, err
			}
			n, err = out.Size()
			out.Close()
			if err != nil {
				return nil, err
			}
		}
		st.FilesCopied++
		st.BytesCopied += n
	}
	st.Checkpoints++
	return names, nil
}

// CheckpointStats counts one worker's checkpoint activity over its
// lifetime: Materialize adds each image it writes.
type CheckpointStats struct {
	// Checkpoints counts completed engine checkpoints.
	Checkpoints int64 `json:"checkpoints" agg:"sum"`
	// FilesLinked / FilesCopied / FilesReused break down how checkpoint
	// files were materialized: hard-linked (zero bytes moved), copied, or
	// already present in the backup set from an earlier checkpoint
	// (incremental reuse). BytesCopied counts only bytes physically
	// copied — the number the incremental path drives to zero.
	FilesLinked int64 `json:"checkpoint_files_linked" agg:"sum" info:"Persistence"`
	FilesCopied int64 `json:"checkpoint_files_copied" agg:"sum" info:"Persistence"`
	FilesReused int64 `json:"checkpoint_files_reused" agg:"sum" info:"Persistence"`
	BytesCopied int64 `json:"checkpoint_bytes_copied" agg:"sum" info:"Persistence"`
}

// AddFile gives the backup set at dstFS:dst the bytes of the immutable,
// uniquely named engine file srcFS:src at the least cost, and counts which
// it was: a dst already present is the same file from an earlier
// checkpoint (reused — what makes the second checkpoint incremental, zero
// unchanged bytes move), else a hard link, else — a cross-FS destination
// or a linkless filesystem — a full copy.
func (st *CheckpointStats) AddFile(srcFS vfs.FS, src string, dstFS vfs.FS, dst string) error {
	if dstFS.Exists(dst) {
		st.FilesReused++
		return nil
	}
	if dstFS.Link(src, dst) == nil {
		st.FilesLinked++
		return nil
	}
	n, err := vfs.CopyFile(srcFS, src, dstFS, dst)
	if err != nil {
		return err
	}
	st.FilesCopied++
	st.BytesCopied += n
	return nil
}

// CheckpointState is the checkpoint pins an engine keeps: the images still
// materializing and the file removals parked behind them. An engine embeds
// it, pins in PrepareCheckpoint, unpins in the image's Release, and retires
// every file through Remove. The mutex is a leaf: nothing is called with it
// held.
type CheckpointState struct {
	mu           sync.Mutex
	ckptPins     int
	ckptDeferred []string
}

// Pin holds every file retired from now on on disk until the matching
// Unpin: a checkpoint captured after the pin may still be linking or
// copying it.
func (c *CheckpointState) Pin() {
	c.mu.Lock()
	c.ckptPins++
	c.mu.Unlock()
}

// Unpin drops one pin; the last one out executes the parked removals.
func (c *CheckpointState) Unpin(fs vfs.FS) {
	c.mu.Lock()
	c.ckptPins--
	var drain []string
	if c.ckptPins == 0 {
		drain, c.ckptDeferred = c.ckptDeferred, nil
	}
	c.mu.Unlock()
	for _, p := range drain {
		fs.Remove(p)
	}
}

// Remove deletes an obsolete engine file, or parks the deletion while a
// pin is held.
func (c *CheckpointState) Remove(fs vfs.FS, path string) {
	c.mu.Lock()
	if c.ckptPins > 0 {
		c.ckptDeferred = append(c.ckptDeferred, path)
		c.mu.Unlock()
		return
	}
	c.mu.Unlock()
	fs.Remove(path)
}

// Held reports whether a pin is held: files that look unreferenced may
// belong to a checkpoint in progress.
func (c *CheckpointState) Held() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ckptPins > 0
}

// Checkpointer is the optional capability of participating in an online
// store-wide checkpoint. PrepareCheckpoint is called while the accessing
// layer has the engine's worker paused at a GSN barrier; it must be fast
// (capture file lists, sizes and positions — no bulk IO) because its
// runtime is write-stall time. The accessing layer materializes the image
// after writes resume.
type Checkpointer interface {
	PrepareCheckpoint() (CheckpointImage, error)
}
