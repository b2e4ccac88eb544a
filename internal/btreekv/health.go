package btreekv

import (
	"fmt"
	"strings"

	"p2kvs/internal/kv"
)

// Disk-full handling.
//
// The engine has no retryable background jobs (checkpoints run inline
// under the store latch), so its failure taxonomy is simpler than the
// LSM's: a journal append or checkpoint that hits ENOSPC degrades the
// store to read-only immediately — retrying cannot free space — while
// reads keep serving the merged dirty+base view. The engine guard
// (internal/guard) then runs reclaimSpace, probes for freed space, and
// auto-Resumes.

// Health implements kv.HealthReporter.
func (d *DB) Health() kv.Health { return d.g.Health() }

// Resume implements kv.HealthReporter: it clears the degraded state and, if the
// incident tainted the journal, re-platforms on a fresh checkpoint +
// journal so new writes land in a readable log. A re-platform failure
// re-degrades (space may not actually be back). A corruption still under
// containment keeps writes blocked: repair or restore lifts that, not
// Resume.
func (d *DB) Resume() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return kv.ErrClosed
	}
	d.g.Clear()
	if cerr, _ := d.corruption(); cerr != nil {
		d.g.Degrade("integrity check", cerr)
		return nil
	}
	if d.wal.Tainted() {
		if err := d.checkpointLocked(); err != nil {
			d.g.Degrade("checkpoint", err)
			return err
		}
	}
	return nil
}

// reclaimSpace is what the guard runs before each space probe: it deletes
// files nothing references — *.new and *.tmp temporaries from interrupted
// checkpoint/open sequences and checkpoint/journal files of generations
// other than the current one. It only runs while the store is degraded (no checkpoint can be mid-flight — they run under the
// latch and the degraded check precedes them) and defers to backup pins,
// which may still be copying retired generations.
func (d *DB) reclaimSpace() {
	d.mu.Lock()
	if d.g.Err() == nil || d.closed || d.Held() {
		d.mu.Unlock()
		return
	}
	gen := d.gen
	names, err := d.opts.FS.List(d.dir)
	if err != nil {
		d.mu.Unlock()
		return
	}
	var victims []string
	for _, name := range names {
		full := d.dir + "/" + name
		var g uint64
		switch {
		case strings.HasSuffix(name, ".new"), strings.HasSuffix(name, ".tmp"):
			victims = append(victims, full)
		case parseGen(name, "ckpt-%06d.db", &g) && g != gen:
			victims = append(victims, full)
		case parseGen(name, "journal-%06d.log", &g) && g != gen:
			victims = append(victims, full)
		}
	}
	d.mu.Unlock()
	for _, v := range victims {
		d.opts.FS.Remove(v)
	}
}

// parseGen extracts the generation number from a file name matching the
// given pattern, requiring the whole name to be consumed.
func parseGen(name, pattern string, g *uint64) bool {
	var tail string
	n, err := fmt.Sscanf(name, pattern+"%s", g, &tail)
	return err != nil && n == 1 // %s must fail: nothing may follow the pattern
}
