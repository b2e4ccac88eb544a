package kv

import (
	"sync"

	"p2kvs/internal/stats"
	"p2kvs/internal/vfs"
)

// CheckpointFile describes one file an engine emitted into a checkpoint
// image.
type CheckpointFile struct {
	// Name is the file's path relative to the checkpoint directory the
	// engine was given in WriteTo.
	Name string
	// Restore is the path, relative to the engine's data directory, the
	// file must be materialized at when the image is restored.
	Restore string
}

// CheckpointStats is a snapshot of an engine's checkpoint activity,
// cumulative over the engine's lifetime.
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

// CheckpointState is what an engine keeps between checkpoints: the pins of
// the checkpoints still materializing, the file removals parked behind
// them, and the lifetime statistics. An engine embeds it (which gives the
// engine the CheckpointStats half of Checkpointer), pins in
// PrepareCheckpoint, unpins in the writer's Release, and retires every file
// through Remove. The mutex is a leaf: nothing is called with it held.
type CheckpointState struct {
	mu           sync.Mutex
	ckptPins     int
	ckptDeferred []string
	stats        CheckpointStats
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

// Add merges one finished checkpoint's share into the lifetime statistics.
func (c *CheckpointState) Add(done CheckpointStats) {
	c.mu.Lock()
	stats.Merge(&c.stats, done)
	c.mu.Unlock()
}

// CheckpointStats implements Checkpointer's statistics half.
func (c *CheckpointState) CheckpointStats() CheckpointStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// CheckpointWriter is the slow half of a two-phase engine checkpoint. It
// holds a pinned, consistent point-in-time view captured by
// PrepareCheckpoint and can materialize it while the engine keeps serving
// writes.
type CheckpointWriter interface {
	// WriteTo materializes the captured view under dir on fs and returns
	// the files making up the image. seq is the backup set's checkpoint
	// sequence number: files whose content differs between checkpoints
	// must embed it in their names, so a crashed later checkpoint can
	// never clobber files an earlier CHECKPOINT manifest references;
	// immutable files (SSTs) keep stable names and are skipped when
	// already present — the incremental path.
	WriteTo(fs vfs.FS, dir string, seq uint64) ([]CheckpointFile, error)
	// Release drops the pinned view. It must be called exactly once,
	// whether or not WriteTo succeeded, or the engine will defer file
	// deletions forever.
	Release()
}

// Checkpointer is the optional capability of participating in an online
// store-wide checkpoint. PrepareCheckpoint is called while the accessing
// layer has the engine's worker paused at a GSN barrier; it must be fast
// (capture references, sizes and positions — no bulk IO) because its
// runtime is write-stall time. The returned writer does the bulk IO after
// writes resume. CheckpointStats reports the lifetime totals, which the
// accessing layer surfaces in per-worker stats.
type Checkpointer interface {
	PrepareCheckpoint() (CheckpointWriter, error)
	CheckpointStats() CheckpointStats
}
