package lsm

// Compaction scheduler.
//
// The engine used to serialize all background compaction behind a single
// `compacting` bool — one merge at a time per instance, no matter how many
// levels were over budget. That single-flight design is exactly the
// compaction bottleneck the paper's per-worker architecture is meant to
// hide (§2.1): on a fast SSD the merge is CPU-bound, and a hot shard's
// serialized compaction inflates every writer's tail latency once L0
// fills.
//
// The scheduler replaces the bool with a set of running compactionJobs.
// Jobs whose level pairs and key ranges are disjoint run concurrently, up
// to maxBackgroundCompactions. The concurrency rules:
//
//   - L0→L1 takes every L0 file (they overlap by construction), so at
//     most one L0 compaction runs at a time, and while it runs nothing
//     else may touch an overlapping range of L0 or L1.
//   - A leveled Ln→Ln+1 job (n >= 1) locks the user-key span of all its
//     files (inputs plus next-level overlap) on the {n, n+1} level pair.
//     Two jobs conflict iff their level pairs intersect AND their spans
//     overlap.
//   - Fragmented jobs merge a whole level, so they lock their level pair
//     entirely (wholeLevel).
//
// These rules make concurrently installed VersionEdits commute: no two
// running jobs share an input file, an output range on the same level, or
// a tombstone-drop precondition that the other could invalidate (data
// only ever moves down-tree, and any job that could push keys into a
// range another job checked with noDataBelow would conflict on the
// intermediate level).

import (
	"bytes"

	"p2kvs/internal/manifest"
)

// compactionJob is one scheduled (possibly running) compaction.
type compactionJob struct {
	level, out int
	inputs     []*manifest.FileMeta // files leaving level
	lower      []*manifest.FileMeta // out-level files rewritten (leveled only)
	lo, hi     []byte               // user-key span of every file touched; nil = open
	wholeLevel bool                 // fragmented jobs lock the whole level pair
	dropTombs  bool
}

// rangesOverlap reports whether [alo, ahi] and [blo, bhi] intersect
// (inclusive user-key bounds; nil = open).
func rangesOverlap(alo, ahi, blo, bhi []byte) bool {
	if ahi != nil && blo != nil && bytes.Compare(ahi, blo) < 0 {
		return false
	}
	if bhi != nil && alo != nil && bytes.Compare(bhi, alo) < 0 {
		return false
	}
	return true
}

// jobsConflict applies the scheduler's concurrency rules.
func jobsConflict(a, b *compactionJob) bool {
	if a.level == 0 && b.level == 0 {
		return true // both would claim the whole of L0
	}
	if a.level != b.level && a.level != b.out && a.out != b.level && a.out != b.out {
		return false // disjoint level pairs never interact
	}
	if a.wholeLevel || b.wholeLevel {
		return true
	}
	return rangesOverlap(a.lo, a.hi, b.lo, b.hi)
}

// conflictsLocked reports whether job conflicts with any running
// compaction. Caller holds d.mu.
func (d *DB) conflictsLocked(job *compactionJob) bool {
	for _, r := range d.compRunning {
		if jobsConflict(job, r) {
			return true
		}
	}
	return false
}

// startJobLocked registers a job as running, joins it to compWG (Close
// waits out every job, background or manual) and updates the concurrency
// high-water mark. Caller holds d.mu and has checked d.closed under it, so
// no Add races Close's Wait.
func (d *DB) startJobLocked(job *compactionJob) {
	d.compRunning = append(d.compRunning, job)
	d.compWG.Add(1)
	if n := int64(len(d.compRunning)); n > d.perf.concurrentCompactHW.Load() {
		d.perf.concurrentCompactHW.Store(n)
	}
}

// finishJob deregisters a job, wakes waiters (stalled writers, CompactAll,
// CompactRange), re-kicks the scheduler and lets Close proceed.
func (d *DB) finishJob(job *compactionJob) {
	defer d.compWG.Done()
	d.mu.Lock()
	for i, r := range d.compRunning {
		if r == job {
			d.compRunning = append(d.compRunning[:i], d.compRunning[i+1:]...)
			break
		}
	}
	d.kick()
	d.cond.Broadcast()
	d.mu.Unlock()
}

// pickJobLocked chooses the highest-score over-budget level that admits a
// non-conflicting job. Caller holds d.mu.
func (d *DB) pickJobLocked() *compactionJob {
	v := d.vs.Current()
	type scored struct {
		level int
		score float64
	}
	var cands []scored
	if s := float64(len(v.Levels[0])) / float64(d.opts.L0CompactionTrigger); s >= 1.0 {
		cands = append(cands, scored{0, s})
	}
	for level := 1; level < manifest.NumLevels-1; level++ {
		if s := float64(v.LevelSize(level)) / float64(d.levelTarget(level)); s > 1.0 {
			cands = append(cands, scored{level, s})
		}
	}
	// Insertion sort by score, descending (the slice is at most 6 long).
	for i := 1; i < len(cands); i++ {
		for j := i; j > 0 && cands[j].score > cands[j-1].score; j-- {
			cands[j], cands[j-1] = cands[j-1], cands[j]
		}
	}
	for _, c := range cands {
		if job := d.buildJobLocked(v, c.level); job != nil {
			return job
		}
	}
	return nil
}

// buildJobLocked constructs a runnable job for one level, or nil when
// every choice of inputs would conflict with a running compaction.
// Caller holds d.mu.
func (d *DB) buildJobLocked(v *manifest.Version, level int) *compactionJob {
	files := v.Levels[level]
	if len(files) == 0 {
		return nil
	}
	if level == 0 || d.writeOnceLevel(level) {
		return d.jobLocked(v, level, append([]*manifest.FileMeta(nil), files...))
	}
	// Deeper leveled levels: try candidate files largest-first (the
	// original fairness heuristic), settling on the first whose span does
	// not conflict with a running job.
	files = append([]*manifest.FileMeta(nil), files...)
	for i := 1; i < len(files); i++ {
		for j := i; j > 0 && files[j].Size > files[j-1].Size; j-- {
			files[j], files[j-1] = files[j-1], files[j]
		}
	}
	for _, f := range files {
		if job := d.jobLocked(v, level, []*manifest.FileMeta{f}); job != nil {
			return job
		}
	}
	return nil
}

// writeOnceLevel reports whether compacting level follows the fragmented
// policy, which writes each next-level file once: the inputs are merged
// among themselves and appended there. The last level pair is always
// merged leveled.
func (d *DB) writeOnceLevel(level int) bool {
	return d.opts.Style == Fragmented && level < manifest.NumLevels-2
}

// jobLocked builds the job that compacts inputs, files of level, into the
// next level: under the fragmented policy a whole-level job that rewrites
// nothing there and drops tombstones only into an empty level with no data
// below; otherwise a leveled job that also rewrites the next-level files
// the inputs overlap. It returns nil when the job would read a quarantined
// file or conflicts with a running compaction. Caller holds d.mu.
func (d *DB) jobLocked(v *manifest.Version, level int, inputs []*manifest.FileMeta) *compactionJob {
	out := level + 1
	lo, hi := keyRange(inputs)
	job := &compactionJob{level: level, out: out, inputs: inputs, lo: lo, hi: hi}
	if d.writeOnceLevel(level) {
		job.wholeLevel = true
		job.dropTombs = len(v.Levels[out]) == 0 && d.noDataBelow(v, out, lo, hi)
	} else {
		for _, f := range v.Levels[out] {
			if f.Overlaps(lo, hi) {
				job.lower = append(job.lower, f)
			}
		}
		job.lo, job.hi = keyRange(append(append([]*manifest.FileMeta(nil), inputs...), job.lower...))
		job.dropTombs = d.noDataBelow(v, out, lo, hi)
	}
	if d.jobQuarantinedLocked(job) || d.conflictsLocked(job) {
		return nil
	}
	return job
}

// scheduleCompactionsLocked starts background jobs until the pool is full
// or no non-conflicting work remains. Caller holds d.mu.
func (d *DB) scheduleCompactionsLocked() {
	for d.g.Err() == nil && !d.closed.Load() &&
		len(d.compRunning) < maxBackgroundCompactions {
		job := d.pickJobLocked()
		if job == nil {
			return
		}
		d.startJobLocked(job)
		go d.runCompaction(job)
	}
}

// runCompaction executes one background job under the engine's retry
// policy (retryBg), then releases its range locks. A corrupt input cannot
// be merged by retrying: the file is quarantined (repair may yet restore
// it) and the job abandoned as done. The engine does not degrade — only
// reads covering the bad file's range fail, and the scheduler skips it.
func (d *DB) runCompaction(job *compactionJob) {
	defer d.finishJob(job)
	d.retryBg(&d.compactJob, func() error {
		if err := d.execJob(job); !d.noteCorruption(err) {
			return err
		}
		return nil
	})
}

// execJob merges a job's inputs and installs the result.
func (d *DB) execJob(job *compactionJob) error {
	all := append(append([]*manifest.FileMeta(nil), job.inputs...), job.lower...)
	for _, f := range all {
		d.perf.compactRead.Add(f.Size)
	}
	outputs, err := d.mergeFiles(all, job.dropTombs)
	if err != nil {
		return err
	}
	return d.installCompaction(job.level, job.inputs, job.out, job.lower, outputs)
}
