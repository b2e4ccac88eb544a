// Package guard is the one copy of what a storage engine needs to survive
// a failure it cannot write through. An engine constructs one Guard and
// reports to it; the guard owns the write-blocking error (first failure
// wins), the rule that a failure caused by space exhaustion is a disk-full
// degrade, the poll that waits for space and resumes the engine, the
// corruption and disk-full counters, and the assembly of kv.Health. What
// counts as fatal, what can be reclaimed on a full disk and what a resume
// must repair stay with the engine.
//
//	healthy ──Retrying(err)──▶ retrying ──Retrying(nil)──▶ healthy
//	   │                          │
//	   └────── Degrade(job, cause) ┘
//	                 ▼
//	             read-only ──Clear (the engine's Resume)──▶ healthy
//
//	read-only, cause is ENOSPC:
//	   wait (capped backoff) ─▶ reclaim ─▶ vfs.ProbeSpace ──ok──▶ resume
//	        ▲                                   │ still full
//	        └───────────────────────────────────┘
//
// Reads never consult the guard. A healthy Health and the per-write gate
// (Err) read one atomic; the mutex is a leaf, nothing is called with it
// held, so an engine may report under its own locks.
package guard

import (
	"sync"
	"sync/atomic"
	"time"

	"p2kvs/internal/kv"
	"p2kvs/internal/vfs"
)

// Guard is the failure state of one engine instance.
type Guard struct {
	engine    string
	fs        vfs.FS
	dir       string
	reclaim   func()
	resume    func() error
	base, max time.Duration

	// state mirrors (err, retrying) for the lock-free paths.
	state atomic.Int32

	diskFullEvents   atomic.Int64
	autoResumes      atomic.Int64
	corruptionEvents atomic.Int64
	// Quarantined is the number of files (or partitions) the engine holds
	// under corruption containment right now; Repaired counts the files it
	// restored from backup. The engine sets them, Health reports them.
	Quarantined, Repaired atomic.Int64

	mu             sync.Mutex
	err            *kv.DegradedError // blocks writes while set
	retrying       error             // newest failure of a job still inside its retry budget
	diskFull       bool              // err was caused by space exhaustion
	lastCorruption error
	polling        bool // the poll goroutine is alive
	closed         bool
	stopC          chan struct{}
	wg             sync.WaitGroup
}

// New returns the guard of the engine instance rooted at fs:dir. While the
// instance is disk-full degraded the guard calls reclaim (nil: the engine
// owns nothing it could delete), probes dir, and once a probe succeeds
// calls resume — the engine's own Resume, which calls Clear and repairs
// what the incident tainted. base/max bound the poll backoff (defaults
// 5ms/1s).
func New(engine string, fs vfs.FS, dir string, reclaim func(), resume func() error, base, max time.Duration) *Guard {
	if base <= 0 {
		base = 5 * time.Millisecond
	}
	if max <= 0 {
		max = time.Second
	}
	return &Guard{engine: engine, fs: fs, dir: dir, reclaim: reclaim, resume: resume,
		base: base, max: max, stopC: make(chan struct{})}
}

// Degrade makes the engine read-only because job failed with cause. The
// first failure wins: a later one changes nothing. Space exhaustion
// additionally starts the poll that resumes the engine once space is back.
func (g *Guard) Degrade(job string, cause error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.err != nil {
		return
	}
	g.err = &kv.DegradedError{Engine: g.engine, Job: job, Cause: cause}
	g.state.Store(int32(kv.StateReadOnly))
	if !vfs.IsNoSpace(cause) {
		return
	}
	g.diskFull = true
	g.diskFullEvents.Add(1)
	if !g.polling && !g.closed {
		g.polling = true
		g.wg.Add(1)
		go g.poll()
	}
}

// Retrying records the newest failure of a background job the engine is
// still retrying (nil: every job recovered). It never lifts a degrade.
func (g *Guard) Retrying(cause error) {
	g.mu.Lock()
	g.retrying = cause
	if g.err == nil {
		s := kv.StateHealthy
		if cause != nil {
			s = kv.StateRetrying
		}
		g.state.Store(int32(s))
	}
	g.mu.Unlock()
}

// Clear is the guard's half of the engine's Resume: writes are admitted
// again.
func (g *Guard) Clear() {
	g.mu.Lock()
	g.err, g.retrying, g.diskFull = nil, nil, false
	g.state.Store(int32(kv.StateHealthy))
	g.mu.Unlock()
}

// Err is the write gate: the error that blocks writes, nil while the
// engine accepts them.
func (g *Guard) Err() error {
	if kv.HealthState(g.state.Load()) != kv.StateReadOnly {
		return nil
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.err == nil {
		return nil // cleared since the load
	}
	return g.err
}

// NoteCorruption counts one detected at-rest corruption and remembers it as
// the last. Whether it degrades the engine is the engine's decision.
func (g *Guard) NoteCorruption(err error) {
	g.corruptionEvents.Add(1)
	g.mu.Lock()
	g.lastCorruption = err
	g.mu.Unlock()
}

// Health assembles the fields of kv.Health every engine family reports.
func (g *Guard) Health() kv.Health {
	h := kv.Health{
		State:            kv.HealthState(g.state.Load()),
		DiskFullEvents:   g.diskFullEvents.Load(),
		AutoResumes:      g.autoResumes.Load(),
		CorruptionEvents: g.corruptionEvents.Load(),
		QuarantinedFiles: g.Quarantined.Load(),
		RepairedFiles:    g.Repaired.Load(),
		InjectedFaults:   vfs.InjectedFaults(g.fs),
	}
	if h.State != kv.StateHealthy || h.CorruptionEvents > 0 {
		g.mu.Lock()
		if g.err != nil {
			h.Err = kv.CauseOf(g.err)
		} else {
			h.Err = kv.CauseOf(g.retrying)
		}
		h.DiskFull = g.diskFull
		h.LastCorruption = kv.CauseOf(g.lastCorruption)
		g.mu.Unlock()
	}
	return h
}

// Close stops the poll and waits for it. A resume in flight finishes
// first, so the engine calls Close before it tears down what its Resume
// touches, and without holding a lock its Resume takes.
func (g *Guard) Close() {
	g.mu.Lock()
	if !g.closed {
		g.closed = true
		close(g.stopC)
	}
	g.mu.Unlock()
	g.wg.Wait()
}

// poll runs while the engine is disk-full degraded: wait, let the engine
// reclaim what it can, probe, resume on success. It exits once the engine
// is no longer disk-full degraded, whoever resumed it; the decision is made
// under mu, so a degrade that follows finds polling false and starts anew.
func (g *Guard) poll() {
	defer g.wg.Done()
	delay := g.base
	t := time.NewTimer(delay)
	defer t.Stop()
	for {
		select {
		case <-g.stopC:
			return
		case <-t.C:
		}
		g.mu.Lock()
		if !g.diskFull {
			g.polling = false
			g.mu.Unlock()
			return
		}
		g.mu.Unlock()
		if g.reclaim != nil {
			g.reclaim()
		}
		if vfs.ProbeSpace(g.fs, g.dir) {
			g.autoResumes.Add(1)
			_ = g.resume() // a resume that fails degrades again; the next round sees it
			delay = g.base
		} else if delay *= 2; delay > g.max {
			delay = g.max
		}
		t.Reset(delay)
	}
}
