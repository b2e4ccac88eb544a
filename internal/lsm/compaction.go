package lsm

import (
	"bytes"
	"fmt"

	"p2kvs/internal/ikey"
	"p2kvs/internal/kv"
	"p2kvs/internal/manifest"
	"p2kvs/internal/sstable"
	"p2kvs/internal/vfs"
)

// CompactRange force-compacts every file overlapping [begin, end] (nil
// bounds are open) down the tree until the range is fully merged — the
// manual-compaction API production stores expose for space reclamation
// and read-amp repair after bulk deletes.
//
// Under the Fragmented style the per-level step follows the fragmented
// policy — the level's overlapping files are merged among themselves and
// appended to the next level WITHOUT rewriting that level's existing
// files, preserving the write-once-per-level invariant (and its
// tombstone-drop precondition) that routing manual compactions through
// the leveled path used to violate.
func (d *DB) CompactRange(begin, end []byte) error {
	if d.closed.Load() {
		return kv.ErrClosed
	}
	if err := d.Flush(); err != nil {
		return err
	}
	for level := 0; level < manifest.NumLevels-1; level++ {
		job, err := d.claimManualJob(level, begin, end)
		if err != nil {
			return err
		}
		if job == nil {
			continue
		}
		err = d.execJob(job)
		d.finishJob(job)
		if err != nil {
			return err
		}
	}
	return nil
}

// claimManualJob builds a manual-compaction job for the files of one
// level overlapping [begin, end], waiting out any conflicting background
// compaction. Returns nil when nothing on the level overlaps the range.
func (d *DB) claimManualJob(level int, begin, end []byte) (*compactionJob, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for {
		if err := d.g.Err(); err != nil {
			return nil, err
		}
		if d.closed.Load() {
			return nil, kv.ErrClosed
		}
		v := d.vs.Current()
		var inputs []*manifest.FileMeta
		for _, f := range v.Levels[level] {
			if f.Overlaps(begin, end) {
				inputs = append(inputs, f)
			}
		}
		if len(inputs) == 0 {
			return nil, nil
		}
		// Fail fast when the requested range touches a quarantined file on
		// either side of the merge: waiting on d.cond would hang (the
		// quarantine only lifts via repair) and compacting around the file
		// could invert version order if it is later repaired.
		if len(d.quar) > 0 {
			ilo, ihi := keyRange(inputs)
			for _, f := range append(append([]*manifest.FileMeta(nil), inputs...), v.Levels[level+1]...) {
				if qerr, ok := d.quar[f.Num]; ok && f.Overlaps(ilo, ihi) {
					return nil, qerr
				}
			}
		}
		if job := d.jobLocked(v, level, inputs); job != nil {
			d.startJobLocked(job)
			return job, nil
		}
		// Wait for a running compaction to release the range.
		d.cond.Wait()
	}
}

// compactLoop is the background compaction dispatcher (Figure 2 ③). Each
// kick (flush landed, compaction finished, Resume) tops the pool back up
// to maxBackgroundCompactions; the jobs themselves run on their own
// goroutines with per-job retry/backoff (see runCompaction).
func (d *DB) compactLoop() {
	defer d.bgWG.Done()
	for {
		select {
		case <-d.stopC:
			return
		case <-d.compactC:
			d.mu.Lock()
			d.scheduleCompactionsLocked()
			d.mu.Unlock()
		}
	}
}

// levelTarget returns the size budget of a level (>= 1).
func (d *DB) levelTarget(level int) int64 {
	t := d.opts.BaseLevelSize
	for i := 1; i < level; i++ {
		t *= levelMultiplier
	}
	return t
}

// keyRange computes the user-key span of a file set.
func keyRange(files []*manifest.FileMeta) (lo, hi []byte) {
	for _, f := range files {
		fl, fh := ikey.UserKey(f.Smallest), ikey.UserKey(f.Largest)
		if lo == nil || bytes.Compare(fl, lo) < 0 {
			lo = fl
		}
		if hi == nil || bytes.Compare(fh, hi) > 0 {
			hi = fh
		}
	}
	return lo, hi
}

// noDataBelow reports whether no level deeper than out overlaps
// [lo, hi] — the condition for dropping tombstones.
func (d *DB) noDataBelow(v *manifest.Version, out int, lo, hi []byte) bool {
	for level := out + 1; level < manifest.NumLevels; level++ {
		for _, f := range v.Levels[level] {
			if f.Overlaps(lo, hi) {
				return false
			}
		}
	}
	return true
}

// mergeFiles merge-sorts the input tables into new tables split at
// TargetFileSize (writeTables), dropping tombstones when dropTombs.
func (d *DB) mergeFiles(inputs []*manifest.FileMeta, dropTombs bool) ([]manifest.FileMeta, error) {
	var children []kv.Iterator
	for _, fm := range inputs {
		// No block cache: a merge reads each block once, through one buffer
		// per input, and must not evict live blocks to cache those of files it
		// is about to delete.
		r, rerr := openTable(d.opts.FS, d.dir, fm.Num, nil)
		if rerr != nil {
			closeAll(children)
			return nil, rerr
		}
		children = append(children, tableIterAdapter{r.NewIterator(), r})
	}
	merge := kv.NewMerge(ikey.Compare, children)
	defer merge.Close()
	outputs, err := d.writeTables(merge, dropTombs, d.opts.TargetFileSize)
	for _, m := range outputs {
		d.perf.compactWrite.Add(m.Size)
	}
	return outputs, err
}

// writeTables is how the engine persists a sorted run, a flush's and a
// compaction's alike. It reads internal keys in order from it (a user key's
// newest version first) and writes only that newest version of each key into
// new tables under fresh file numbers; no reader needs the rest, since a read
// state from before the outputs are installed still holds the inputs and one
// published after pairs with a sequence newer than every entry here.
// Tombstones are left out when dropTombs, and a new table starts once one
// holds split bytes of keys and values (never when split is 0). On any error
// every output, partial or finished, is closed and removed, so a failed
// attempt leaves no orphans for its retry to trip over.
func (d *DB) writeTables(it kv.Iterator, dropTombs bool, split int64) (_ []manifest.FileMeta, err error) {
	var (
		outputs []manifest.FileMeta
		w       *sstable.Writer
		f       vfs.File
		num     uint64
		written int64
		ukBuf   [64]byte    // holds a short lastUK without a heap allocation
		lastUK  = ukBuf[:0] // a copy: it may reuse the key's bytes after Next
		haveUK  bool
	)
	defer func() {
		if err == nil {
			return
		}
		if w != nil {
			f.Close()
			d.opts.FS.Remove(sstName(d.dir, num))
		}
		for _, m := range outputs {
			d.opts.FS.Remove(sstName(d.dir, m.Num))
		}
	}()
	finish := func() error {
		meta, err := w.Finish()
		f.Close()
		w = nil
		if err != nil {
			d.opts.FS.Remove(sstName(d.dir, num))
			return err
		}
		outputs = append(outputs, manifest.FileMeta{
			Num: meta.FileNum, Size: meta.Size, Entries: meta.Entries,
			Smallest: meta.Smallest, Largest: meta.Largest,
		})
		return nil
	}
	for it.SeekToFirst(); it.Valid(); it.Next() {
		ik := it.Key()
		if len(ik) < ikey.TrailerLen {
			return nil, fmt.Errorf("lsm: internal key of %d bytes", len(ik))
		}
		uk := ikey.UserKey(ik)
		if haveUK && bytes.Equal(uk, lastUK) {
			continue // shadowed older version
		}
		lastUK, haveUK = append(lastUK[:0], uk...), true
		if dropTombs && ikey.Kind(ik[len(ik)-ikey.TrailerLen]) == ikey.KindDelete {
			continue
		}
		if w != nil && split > 0 && written >= split {
			if err := finish(); err != nil {
				return nil, err
			}
			written = 0
		}
		if w == nil {
			num = d.vs.NewFileNum()
			if f, err = d.opts.FS.Create(sstName(d.dir, num)); err != nil {
				return nil, err
			}
			w = sstable.NewWriter(f, num)
		}
		v := it.Value()
		if err := w.Add(ik, v); err != nil {
			return nil, err
		}
		written += int64(len(ik) + len(v))
	}
	if err := it.Error(); err != nil {
		return nil, err
	}
	if w != nil {
		if err := finish(); err != nil {
			return nil, err
		}
	}
	return outputs, nil
}

func closeAll(its []kv.Iterator) {
	for _, it := range its {
		it.Close()
	}
}

// installCompaction atomically swaps inputs for outputs in the manifest,
// then deletes the obsolete files. Concurrent jobs install edits that
// commute: the scheduler guarantees no two running jobs share a file or
// an output range on the same level.
func (d *DB) installCompaction(inLevel int, inputs []*manifest.FileMeta, outLevel int, lower []*manifest.FileMeta, outputs []manifest.FileMeta) error {
	edit := &manifest.VersionEdit{}
	for _, f := range inputs {
		edit.Deleted = append(edit.Deleted, manifest.DeletedFile{Level: inLevel, Num: f.Num})
	}
	for _, f := range lower {
		edit.Deleted = append(edit.Deleted, manifest.DeletedFile{Level: outLevel, Num: f.Num})
	}
	for _, m := range outputs {
		edit.Added = append(edit.Added, manifest.AddedFile{Level: outLevel, Meta: m})
	}
	if err := d.applyEdit(edit); err != nil {
		return err
	}
	d.perf.compactions.Add(1)
	for _, f := range append(append([]*manifest.FileMeta(nil), inputs...), lower...) {
		d.tcache.evict(f.Num)
		// Deferred while a checkpoint pin holds: the captured version may
		// still reference this input (DESIGN.md §10).
		d.Remove(d.opts.FS, sstName(d.dir, f.Num))
	}
	return nil
}
