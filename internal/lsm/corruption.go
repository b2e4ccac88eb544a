package lsm

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"p2kvs/internal/kv"
	"p2kvs/internal/sstable"
)

// Corruption containment, repair and scrubbing (DESIGN.md §12).
//
// A checksum mismatch in an SST quarantines that one file: its number goes
// into d.quar, reads whose key lies in its range fail with kv.ErrCorruption
// (never a wrong or silently-missing value), and compaction jobs that would
// read it are skipped. Every other key range keeps serving — the blast
// radius is one file, not the engine.
//
// Repair runs asynchronously (or synchronously from Scrub): when the DB was
// opened with a RepairSource — the accessing layer builds one from the
// newest checkpoint generation, whose manifest carries per-file CRCs —
// kv.InstallRepair fetches the backup bytes, verifies them end to end and
// writes them over the bad file; the quarantine lifts. With no usable
// backup the bad file is parked in <dir>/quarantine/ for forensics; reads
// of its range keep failing until an operator (or a later checkpoint
// restore) intervenes.
//
// Quarantine state is in-memory, but parking survives restart: Open re-lists
// <dir>/quarantine/ and re-registers any parked file still referenced by the
// version, so a reopened engine fails those ranges with ErrCorruption
// instead of ErrNotExist.

// quarantineSubdir is where unrepairable files are parked, under the
// instance directory.
const quarantineSubdir = "quarantine"

func quarantinePath(dir string, num uint64) string {
	return fmt.Sprintf("%s/%s/%06d.sst", dir, quarantineSubdir, num)
}

// corruptFileNum extracts the SST file number a corruption error names, so
// detection anywhere (point read, compaction input, scrub) maps back to the
// file to quarantine.
func corruptFileNum(err error) (uint64, bool) {
	var ce *kv.CorruptionError
	if !errors.As(err, &ce) {
		return 0, false
	}
	return fileNum(ce.File[strings.LastIndexByte(ce.File, '/')+1:], ".sst")
}

// quarErr returns the corruption error recorded against file num, nil when
// the file is healthy. The healthy fast path is one atomic load.
func (d *DB) quarErr(num uint64) error {
	if d.g.Quarantined.Load() == 0 {
		return nil
	}
	d.mu.Lock()
	err := d.quar[num]
	d.mu.Unlock()
	return err
}

// recordCorruption registers err against file num, reporting whether the
// file was newly quarantined (false when already quarantined).
func (d *DB) recordCorruption(num uint64, err error) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, already := d.quar[num]; already {
		return false
	}
	d.quar[num] = err
	d.g.Quarantined.Store(int64(len(d.quar)))
	return true
}

// noteCorruption classifies err: when it is a corruption error the
// offending file (if identifiable) is quarantined and an asynchronous
// repair attempt kicked off. It reports whether err was corruption —
// callers use that to stop retrying, since re-reading flipped bits cannot
// succeed.
func (d *DB) noteCorruption(err error) bool {
	if err == nil || !errors.Is(err, kv.ErrCorruption) {
		return false
	}
	d.g.NoteCorruption(err)
	num, ok := corruptFileNum(err)
	if !ok {
		return true
	}
	if d.recordCorruption(num, err) && !d.closed.Load() {
		d.repairWG.Add(1)
		go func() {
			defer d.repairWG.Done()
			d.tryRepair(num)
		}()
	}
	return true
}

// tryRepair attempts to restore quarantined file num from the configured
// RepairSource, reporting whether the quarantine was lifted. On failure
// (no source, no backup of this file, or the backup itself fails
// verification) the bad file is parked in <dir>/quarantine/.
func (d *DB) tryRepair(num uint64) bool {
	d.mu.Lock()
	if d.closed.Load() || d.repairing[num] {
		d.mu.Unlock()
		return false
	}
	if _, quarantined := d.quar[num]; !quarantined {
		d.mu.Unlock()
		return false
	}
	d.repairing[num] = true
	d.mu.Unlock()
	defer func() {
		d.mu.Lock()
		delete(d.repairing, num)
		d.mu.Unlock()
	}()

	if !kv.InstallRepair(d.opts.RepairSource, fmt.Sprintf("%06d.sst", num), sstable.VerifyImage, d.opts.FS, sstName(d.dir, num)) {
		d.parkQuarantined(num)
		return false
	}
	d.mu.Lock()
	delete(d.quar, num)
	d.g.Quarantined.Store(int64(len(d.quar)))
	d.mu.Unlock()
	// Drop the reader holding the corrupt image so the next probe opens the
	// repaired file; remove any parked copy from an earlier failed attempt.
	d.tcache.evict(num)
	if p := quarantinePath(d.dir, num); d.opts.FS.Exists(p) {
		d.opts.FS.Remove(p)
	}
	d.g.Repaired.Add(1)
	return true
}

// parkQuarantined moves an unrepairable file into <dir>/quarantine/ so
// space reclamation and operators can see it. The quarantine entry stays:
// reads covering the file's range keep failing with ErrCorruption.
func (d *DB) parkQuarantined(num uint64) {
	fs := d.opts.FS
	src := sstName(d.dir, num)
	if !fs.Exists(src) {
		return
	}
	if err := fs.MkdirAll(d.dir + "/" + quarantineSubdir); err != nil {
		return
	}
	d.tcache.evict(num)
	fs.Rename(src, quarantinePath(d.dir, num))
}

// loadQuarantine re-registers files parked by a previous run, so a
// reopened engine fails their ranges with ErrCorruption (the containment
// contract) rather than ErrNotExist. Called once from OpenWith.
func (d *DB) loadQuarantine() {
	names, err := d.opts.FS.List(d.dir + "/" + quarantineSubdir)
	if err != nil || len(names) == 0 {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, n := range names {
		num, ok := fileNum(n, ".sst")
		if !ok {
			continue
		}
		d.quar[num] = &kv.CorruptionError{
			File: n, Offset: -1,
			Detail: "lsm: parked in quarantine by a previous run",
		}
	}
	d.g.Quarantined.Store(int64(len(d.quar)))
}

// jobQuarantinedLocked reports whether any file a compaction job would
// read is quarantined. Such jobs are skipped rather than built: merging a
// corrupt input would either fail or — worse — compact around it and let
// level ordering invert version order if the file is later repaired.
// Caller holds d.mu.
func (d *DB) jobQuarantinedLocked(job *compactionJob) bool {
	if len(d.quar) == 0 {
		return false
	}
	for _, f := range job.inputs {
		if _, ok := d.quar[f.Num]; ok {
			return true
		}
	}
	for _, f := range job.lower {
		if _, ok := d.quar[f.Num]; ok {
			return true
		}
	}
	return false
}

var _ kv.Scrubber = (*DB)(nil)

// Scrub implements kv.Scrubber through kv.ScrubFiles over every SST the
// current version references; a corrupt one is quarantined and repaired
// inline, so the result already reflects the repair. Live WALs are not
// scanned: their tail is being appended concurrently, and every record is
// CRC-checked at replay, the only time WAL bytes are trusted.
func (d *DB) Scrub(ctx context.Context, lim kv.RateLimiter) (kv.ScrubResult, error) {
	return kv.ScrubFiles(ctx, lim, d.scrubList, d.scrubVerify, func(f kv.ScrubFile) bool { return d.tryRepair(f.Num) })
}

func (d *DB) scrubList() ([]kv.ScrubFile, error) {
	if d.closed.Load() {
		return nil, kv.ErrClosed
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	var files []kv.ScrubFile
	for _, level := range d.vs.Current().Levels {
		for _, fm := range level {
			_, quarantined := d.quar[fm.Num]
			files = append(files, kv.ScrubFile{Name: fmt.Sprintf("%06d.sst", fm.Num), Num: fm.Num, Size: int64(fm.Size), Quarantined: quarantined})
		}
	}
	return files, nil
}

// scrubVerify re-reads every block of table f.Num from the device and
// quarantines the table if one fails its checksum.
func (d *DB) scrubVerify(f kv.ScrubFile) (int64, error) {
	t, err := d.tcache.acquire(f.Num)
	var n int64
	if err == nil {
		n, err = t.Verify()
		t.Close()
	}
	if errors.Is(err, kv.ErrCorruption) {
		d.g.NoteCorruption(err)
		d.recordCorruption(f.Num, err)
	}
	return n, err
}
