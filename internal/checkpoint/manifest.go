// Package checkpoint defines the on-disk format of a store-wide backup
// set: a directory holding per-worker engine images plus a top-level
// CHECKPOINT manifest, sealed JSON (vfs.Seal), that records the store
// shape (worker count, partitioner, engine), the GSN watermark the barrier
// captured, and a checksum for every file in the image. The manifest is
// the commit record of a checkpoint — it is written last, through a
// temporary name, so a crashed checkpoint leaves either the previous
// manifest (still wholly valid: later checkpoints never modify files an
// earlier manifest references) or no manifest at all, never a partial
// image that parses.
package checkpoint

import (
	"errors"
	"fmt"
	"strings"

	"p2kvs/internal/vfs"
)

// ManifestName is the manifest's file name inside a backup directory.
const ManifestName = "CHECKPOINT"

// ErrCorrupt is the base error of every damaged-backup failure — manifest
// parse errors and file checksum mismatches both match it: typed, never a
// panic, and never a silently partial manifest.
var ErrCorrupt = errors.New("checkpoint: corrupt backup")

// ErrNoManifest is returned by Load when the backup directory has no
// CHECKPOINT manifest (an empty or never-committed backup set).
var ErrNoManifest = errors.New("checkpoint: no CHECKPOINT manifest")

// ErrChecksumMismatch is returned by Restore when a file's content does
// not match the checksum the manifest recorded for it. It unwraps to
// ErrCorrupt.
var ErrChecksumMismatch = fmt.Errorf("%w: file checksum mismatch", ErrCorrupt)

// File is one file of the backup image.
type File struct {
	// Worker is the owning worker's index, or -1 for store-level files
	// (the transaction log).
	Worker int `json:"worker"`
	// Path is the file's location relative to the backup root.
	Path string `json:"path"`
	// Restore is where the file materializes on restore, relative to the
	// owning worker's engine directory (or the store's transaction
	// directory for Worker == -1).
	Restore string `json:"restore"`
	Size    int64  `json:"size"`
	CRC     uint32 `json:"crc"`
}

// Manifest describes one committed checkpoint of a backup set. On disk it
// is sealed JSON (vfs.Seal); the tags are its field names.
type Manifest struct {
	// Seq numbers checkpoints within a backup set, starting at 1. Mutable
	// per-checkpoint files embed it in their names, which is what lets
	// checkpoint N+1 crash without invalidating checkpoint N.
	Seq         uint64 `json:"seq"`
	Workers     int    `json:"workers"`
	Engine      string `json:"engine"`
	Partitioner string `json:"partitioner"`
	// GSN is the store-wide Global Sequence Number watermark at the
	// barrier; WorkerGSN[i] is worker i's replication stream cursor at
	// the same instant (zero when replication is off).
	GSN         uint64   `json:"gsn"`
	WorkerGSN   []uint64 `json:"worker_gsn"`
	TakenUnixNs int64    `json:"taken_unix_ns"`
	BarrierNs   int64    `json:"barrier_ns"`
	// ReplID is the replication lineage ID of the store that took the
	// checkpoint, empty when replication was disabled. A replica restored
	// from this image partial-syncs from WorkerGSN only against a primary
	// still carrying this ID.
	ReplID string `json:"replid,omitempty"`
	Files  []File `json:"files"`
}

// Parse unseals and validates a manifest. Any deviation — truncation, bit
// flips, an unknown field, out-of-range references — yields an error
// satisfying errors.Is(err, ErrCorrupt); Parse never panics.
func Parse(data []byte) (*Manifest, error) {
	m := &Manifest{}
	if err := vfs.Unseal(data, m); err != nil {
		return nil, fmt.Errorf("%w: manifest: %w", ErrCorrupt, err)
	}
	if err := m.validate(); err != nil {
		return nil, fmt.Errorf("%w: manifest: %v", ErrCorrupt, err)
	}
	return m, nil
}

// validate reports the first rule m breaks.
func (m *Manifest) validate() error {
	switch {
	case m.Seq == 0:
		return errors.New("seq 0")
	case m.Workers < 1 || m.Workers >= 1<<16:
		return fmt.Errorf("%d workers", m.Workers)
	case m.Engine == "":
		return errors.New("no engine")
	case len(m.WorkerGSN) != m.Workers:
		return fmt.Errorf("%d worker gsns for %d workers", len(m.WorkerGSN), m.Workers)
	case m.BarrierNs < 0:
		return errors.New("negative barrier_ns")
	}
	for _, f := range m.Files {
		switch {
		case f.Worker < -1 || f.Worker >= m.Workers:
			return fmt.Errorf("file %s references worker %d of %d", f.Path, f.Worker, m.Workers)
		case f.Size < 0:
			return fmt.Errorf("file %s has size %d", f.Path, f.Size)
		case !SafeRel(f.Path) || !SafeRel(f.Restore):
			return fmt.Errorf("unsafe file path %q -> %q", f.Path, f.Restore)
		}
	}
	return nil
}

// SafeRel accepts only clean relative paths that cannot escape the backup
// root, an engine directory, or a replica's image staging directory.
func SafeRel(p string) bool {
	if p == "" || strings.HasPrefix(p, "/") {
		return false
	}
	for _, part := range strings.Split(p, "/") {
		if part == "" || part == "." || part == ".." {
			return false
		}
	}
	return true
}

// Load reads and parses the committed manifest of a backup set.
func Load(fs vfs.FS, dir string) (*Manifest, error) {
	name := dir + "/" + ManifestName
	if !fs.Exists(name) {
		return nil, ErrNoManifest
	}
	data, err := vfs.ReadFile(fs, name)
	if err != nil {
		return nil, err
	}
	return Parse(data)
}

// Write commits the manifest: sealed, then temporary name, sync, atomic
// rename. After it returns, the checkpoint it describes is durable and
// complete.
func Write(fs vfs.FS, dir string, m *Manifest) error {
	data, err := vfs.Seal(m)
	if err != nil {
		return err
	}
	return vfs.WriteFileAtomic(fs, dir+"/"+ManifestName, data)
}

// GC removes files in the backup set m does not reference: leftovers of a
// crashed checkpoint attempt, and files only referenced by superseded
// checkpoints. It sweeps the directories of m and of prev, the manifest m
// replaced (nil if none), so a set whose store shrank loses the retired
// workers' files too. Call it after Write. Best effort — an error leaves
// garbage, never damages the image.
func GC(fs vfs.FS, dir string, m, prev *Manifest) {
	referenced := map[string]bool{ManifestName: true}
	for _, f := range m.Files {
		referenced[f.Path] = true
	}
	dirs := map[string]bool{"": true}
	for _, man := range []*Manifest{m, prev} {
		if man == nil {
			continue
		}
		for _, f := range man.Files {
			if i := strings.LastIndexByte(f.Path, '/'); i >= 0 {
				dirs[f.Path[:i]] = true
			}
		}
		for i := 0; i < man.Workers; i++ {
			dirs[fmt.Sprintf("worker-%d", i)] = true
		}
	}
	for d := range dirs {
		full := dir
		if d != "" {
			full = dir + "/" + d
		}
		names, err := fs.List(full)
		if err != nil {
			continue
		}
		for _, n := range names {
			rel := n
			if d != "" {
				rel = d + "/" + n
			}
			if !referenced[rel] {
				fs.Remove(dir + "/" + rel)
			}
		}
	}
}

// Restore materializes the backup image: it loads the manifest, verifies
// every file's size and checksum against it, and copies each file to the
// destination computed by place (worker index, or -1 for store-level,
// plus the manifest's restore-relative path). It fails — without having
// reported success for a partial image — on the first missing, truncated
// or corrupted file.
func Restore(srcFS vfs.FS, srcDir string, dstFS vfs.FS, place func(worker int, rel string) string) (*Manifest, error) {
	m, err := Load(srcFS, srcDir)
	if err != nil {
		return nil, err
	}
	for _, f := range m.Files {
		src := srcDir + "/" + f.Path
		crc, size, err := vfs.Checksum(srcFS, src)
		if err != nil {
			return nil, fmt.Errorf("checkpoint: reading %s: %w", f.Path, err)
		}
		if size != f.Size || crc != f.CRC {
			return nil, fmt.Errorf("%w: %s (size %d crc %08x, manifest says size %d crc %08x)",
				ErrChecksumMismatch, f.Path, size, crc, f.Size, f.CRC)
		}
		dst := place(f.Worker, f.Restore)
		if _, err := vfs.CopyFile(srcFS, src, dstFS, dst); err != nil {
			return nil, fmt.Errorf("checkpoint: restoring %s: %w", f.Path, err)
		}
	}
	return m, nil
}
