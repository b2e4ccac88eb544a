package lsm

import (
	"bytes"

	"p2kvs/internal/ikey"
	"p2kvs/internal/kv"
	"p2kvs/internal/manifest"
	"p2kvs/internal/sstable"
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

// mergeFiles merge-sorts the input tables and writes outputs split at
// TargetFileSize. Older duplicate versions are dropped (no snapshot
// support across compactions); tombstones are dropped when dropTombs. On
// any error every partial and finished output file is closed and removed,
// so a failed merge leaves no orphans for the retry to trip over.
func (d *DB) mergeFiles(inputs []*manifest.FileMeta, dropTombs bool) (outputs []manifest.FileMeta, err error) {
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

	var (
		w      *sstable.Writer
		wf     interface{ Close() error }
		curNum uint64
		lastUK []byte
		haveUK bool
	)
	defer func() {
		if err == nil {
			return
		}
		// Mid-merge failure: close the in-progress writer and sweep every
		// output written so far off the disk.
		if w != nil {
			wf.Close()
			d.opts.FS.Remove(sstName(d.dir, curNum))
		}
		for _, m := range outputs {
			d.opts.FS.Remove(sstName(d.dir, m.Num))
		}
		outputs = nil
	}()
	finishOutput := func() error {
		if w == nil {
			return nil
		}
		meta, ferr := w.Finish()
		wf.Close()
		w = nil
		if ferr != nil {
			d.opts.FS.Remove(sstName(d.dir, curNum))
			return ferr
		}
		d.perf.compactWrite.Add(meta.Size)
		outputs = append(outputs, manifest.FileMeta{
			Num: meta.FileNum, Size: meta.Size, Entries: meta.Entries,
			Smallest: meta.Smallest, Largest: meta.Largest,
		})
		return nil
	}

	written := int64(0)
	for merge.SeekToFirst(); merge.Valid(); merge.Next() {
		ik := merge.Key()
		uk, _, kind, derr := ikey.Decode(ik)
		if derr != nil {
			return nil, derr
		}
		if haveUK && bytes.Equal(uk, lastUK) {
			continue // shadowed older version
		}
		lastUK = append(lastUK[:0], uk...)
		haveUK = true
		if kind == ikey.KindDelete && dropTombs {
			continue
		}
		if w != nil && written >= d.opts.TargetFileSize {
			if err = finishOutput(); err != nil {
				return nil, err
			}
			written = 0
		}
		if w == nil {
			curNum = d.vs.NewFileNum()
			f, ferr := d.opts.FS.Create(sstName(d.dir, curNum))
			if ferr != nil {
				w = nil
				err = ferr
				return nil, err
			}
			w = sstable.NewWriter(f, curNum)
			wf = f
		}
		if err = w.Add(ik, merge.Value()); err != nil {
			return nil, err
		}
		written += int64(len(ik) + len(merge.Value()))
	}
	if err = merge.Error(); err != nil {
		return nil, err
	}
	if err = finishOutput(); err != nil {
		return nil, err
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
	orphans := make([]uint64, 0, len(outputs))
	for _, m := range outputs {
		orphans = append(orphans, m.Num)
	}
	if err := d.applyEdit(edit, orphans...); err != nil {
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
