package kv

import (
	"cmp"
	"context"
	"errors"
	"slices"

	"p2kvs/internal/vfs"
)

// ScrubFile is one immutable engine file as a scrub pass lists it: Name is
// its restore name (the one RepairSource.Fetch knows), Num the engine's own
// handle for it (a table number, a generation, a slab). A Quarantined file
// is already fenced off: the pass retries its repair instead of reading it.
type ScrubFile struct {
	Name        string
	Num         uint64
	Size        int64
	Quarantined bool
}

// ScrubFiles is the one scrub pass every Scrubber runs over the files list
// returns. Each file is charged to lim (nil = unthrottled) on the caller's
// goroutine, then verify re-reads it and returns the bytes it read. An
// ErrCorruption from verify counts the file corrupt (verify has
// quarantined it) and hands it to repair (nil repairs nothing). Any other
// error ends the pass, unless list no longer names the file: it was retired
// meanwhile. Files written during the pass (a compaction's outputs) are
// verified by the next of at most four sweeps, until one finds nothing new.
func ScrubFiles(ctx context.Context, lim RateLimiter, list func() ([]ScrubFile, error), verify func(ScrubFile) (int64, error), repair func(ScrubFile) bool) (ScrubResult, error) {
	var res ScrubResult
	visited := make(map[string]bool)
	for sweep := 0; sweep < 4; sweep++ {
		files, err := list()
		if err != nil {
			return res, err
		}
		seen := len(visited)
		for _, f := range files {
			if visited[f.Name] {
				continue
			}
			visited[f.Name] = true
			if err := ctx.Err(); err != nil {
				return res, err
			}
			if !f.Quarantined {
				if lim != nil {
					if err := lim.WaitN(ctx, int(f.Size)); err != nil {
						return res, err
					}
				}
				n, err := verify(f)
				if err != nil && !errors.Is(err, ErrCorruption) {
					if now, lerr := list(); lerr != nil || slices.ContainsFunc(now, func(g ScrubFile) bool { return g.Name == f.Name }) {
						return res, cmp.Or(lerr, err)
					}
					continue // retired
				}
				res.FilesScanned++
				res.BytesScanned += n
				if err == nil {
					continue
				}
				res.CorruptionsFound++
			}
			if repair != nil && repair(f) {
				res.FilesRepaired++
			}
		}
		if len(visited) == seen {
			break
		}
	}
	return res, nil
}

// InstallRepair replaces the damaged file at fs:path with the backup copy
// src holds under name, once check accepts the bytes, and reports whether it
// did. A nil src repairs nothing.
func InstallRepair(src RepairSource, name string, check func(name string, data []byte) error, fs vfs.FS, path string) bool {
	if src == nil {
		return false
	}
	data, ok := src.Fetch(name)
	return ok && check(name, data) == nil && vfs.WriteFileAtomic(fs, path, data) == nil
}
