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
// to Options.MaxBackgroundCompactions. The concurrency rules:
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
	fragmented bool                 // merge inputs only, append to out
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

// startJobLocked registers a job as running and updates the concurrency
// high-water mark. Caller holds d.mu.
func (d *DB) startJobLocked(job *compactionJob) {
	d.compRunning = append(d.compRunning, job)
	if n := int64(len(d.compRunning)); n > d.perf.concurrentCompactHW.Load() {
		d.perf.concurrentCompactHW.Store(n)
	}
}

// finishJob deregisters a job, wakes waiters (stalled writers, CompactAll,
// CompactRange) and re-kicks the scheduler.
func (d *DB) finishJob(job *compactionJob) {
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
	out := level + 1
	if d.opts.Style == Fragmented && level < manifest.NumLevels-2 {
		files := v.Levels[level]
		if len(files) == 0 {
			return nil
		}
		inputs := append([]*manifest.FileMeta(nil), files...)
		lo, hi := keyRange(inputs)
		job := &compactionJob{
			level: level, out: out, inputs: inputs,
			lo: lo, hi: hi, wholeLevel: true, fragmented: true,
			dropTombs: d.noDataBelow(v, out, lo, hi) && len(v.Levels[out]) == 0,
		}
		if d.jobQuarantinedLocked(job) || d.conflictsLocked(job) {
			return nil
		}
		return job
	}
	if level == 0 {
		files := v.Levels[0]
		if len(files) == 0 {
			return nil
		}
		inputs := append([]*manifest.FileMeta(nil), files...)
		return d.finishLeveledJobLocked(v, 0, inputs)
	}
	// Deeper leveled levels: try candidate files largest-first (the
	// original fairness heuristic), settling on the first whose span does
	// not conflict with a running job.
	files := append([]*manifest.FileMeta(nil), v.Levels[level]...)
	for i := 1; i < len(files); i++ {
		for j := i; j > 0 && files[j].Size > files[j-1].Size; j-- {
			files[j], files[j-1] = files[j-1], files[j]
		}
	}
	for _, f := range files {
		if job := d.finishLeveledJobLocked(v, level, []*manifest.FileMeta{f}); job != nil {
			return job
		}
	}
	return nil
}

// finishLeveledJobLocked completes a leveled job from chosen inputs:
// next-level overlap, full span, tombstone decision, conflict check.
// Caller holds d.mu.
func (d *DB) finishLeveledJobLocked(v *manifest.Version, level int, inputs []*manifest.FileMeta) *compactionJob {
	out := level + 1
	lo, hi := keyRange(inputs)
	var lower []*manifest.FileMeta
	for _, f := range v.Levels[out] {
		if f.Overlaps(lo, hi) {
			lower = append(lower, f)
		}
	}
	all := append(append([]*manifest.FileMeta(nil), inputs...), lower...)
	flo, fhi := keyRange(all)
	job := &compactionJob{
		level: level, out: out, inputs: inputs, lower: lower,
		lo: flo, hi: fhi,
		dropTombs: d.noDataBelow(v, out, lo, hi),
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
		len(d.compRunning) < d.opts.MaxBackgroundCompactions {
		job := d.pickJobLocked()
		if job == nil {
			return
		}
		d.startJobLocked(job)
		d.compWG.Add(1)
		go d.runCompaction(job)
	}
}

// runCompaction executes one background job with the engine's standard
// retry/backoff/degrade policy, then releases its range locks.
func (d *DB) runCompaction(job *compactionJob) {
	defer d.compWG.Done()
	defer d.finishJob(job)
	for attempt := 0; ; attempt++ {
		select {
		case <-d.stopC:
			return
		default:
		}
		err := d.execJob(job)
		if err == nil {
			if attempt > 0 {
				d.clearBgFailure("compaction")
			}
			return
		}
		if d.noteCorruption(err) {
			// A corrupt input cannot be merged by retrying: the file is
			// quarantined (repair may yet restore it) and this job
			// abandoned. The engine does not degrade — only reads covering
			// the bad file's range fail, and the scheduler skips it.
			if attempt > 0 {
				d.clearBgFailure("compaction")
			}
			return
		}
		if !d.noteBgFailure("compaction", err, attempt) {
			return // degraded or closing; Resume re-kicks the scheduler
		}
		d.perf.compactRetries.Add(1)
		if !d.backoffWait(attempt + 1) {
			return // closing
		}
	}
}

// execJob merges a job's inputs (splitting into subcompactions when
// profitable) and installs the result.
func (d *DB) execJob(job *compactionJob) error {
	all := append(append([]*manifest.FileMeta(nil), job.inputs...), job.lower...)
	for _, f := range all {
		d.perf.compactRead.Add(f.Size)
	}
	outputs, err := d.mergeSplit(all, job.out, job.dropTombs)
	if err != nil {
		return err
	}
	return d.installCompaction(job.level, job.inputs, job.out, job.lower, outputs)
}
