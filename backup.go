package p2kvs

import (
	"fmt"
	"os"

	"p2kvs/internal/checkpoint"
	"p2kvs/internal/vfs"
)

// Online backup and restore. Backup takes a GSN-barrier checkpoint of a
// running store into a backup directory on the host filesystem; repeated
// backups into the same directory are incremental (unchanged immutable
// files are hard-linked or reused, never re-copied). Restore verifies
// every file of the image against the CHECKPOINT manifest's checksums and
// opens a fresh store from it.

// BackupInfo summarizes one committed checkpoint.
type BackupInfo struct {
	// Seq numbers checkpoints within a backup set, starting at 1.
	Seq uint64
	// Workers is the store's worker count at checkpoint time.
	Workers int
	// Engine is the engine kind the image was taken with.
	Engine string
	// GSN is the store-wide transaction watermark the barrier captured.
	GSN uint64
	// Files is the number of files the image references.
	Files int
	// BarrierNs is how long the checkpoint paused the workers.
	BarrierNs int64
	// TakenUnixNs is when the barrier was taken.
	TakenUnixNs int64
}

// Backup takes an online checkpoint of store into dir on the host
// filesystem. The store stays fully available; writers pause only for the
// barrier (reported in BackupInfo.BarrierNs). A dir holding a previous
// backup is updated incrementally, and that previous backup remains
// restorable until the new one commits.
func Backup(store *Store, dir string) (BackupInfo, error) {
	m, err := store.Checkpoint(vfs.NewOS(), dir)
	if err != nil {
		return BackupInfo{}, err
	}
	return BackupInfo{
		Seq:         m.Seq,
		Workers:     m.Workers,
		Engine:      m.Engine,
		GSN:         m.GSN,
		Files:       len(m.Files),
		BarrierNs:   m.BarrierNs,
		TakenUnixNs: m.TakenUnixNs,
	}, nil
}

// Restore materializes the backup set at backupDir (host filesystem) into
// opts.Dir and opens a store from it. Every file is verified against the
// manifest's size and CRC before the store opens; a damaged image fails
// without leaving a store that silently misses data. opts.Workers and
// opts.Engine may be left zero/empty to adopt the image's shape; when set
// they must be compatible with it (same worker count, same engine family).
func Restore(backupDir string, opts Options) (*Store, error) {
	return restore(vfs.NewOS(), backupDir, opts)
}

// RestoreReplica returns a replica's full-sync restore, the network
// server's RestoreStore: it restores the image the replica received into
// src at dir into a fresh store shaped by opts, as Restore does. A store on
// the host filesystem is replaced wholesale, so its directory is wiped
// first; an in-memory store never used that path, and whatever a host
// directory of that name holds is not its to delete.
func RestoreReplica(opts Options) func(src vfs.FS, dir string) (*Store, error) {
	return func(src vfs.FS, dir string) (*Store, error) {
		if !opts.InMemory {
			if err := os.RemoveAll(opts.Dir); err != nil {
				return nil, err
			}
		}
		return restore(src, dir, opts)
	}
}

// restore is Restore reading the image from src.
func restore(src vfs.FS, backupDir string, opts Options) (*Store, error) {
	m, err := checkpoint.Load(src, backupDir)
	if err != nil {
		return nil, err
	}
	if opts.Workers == 0 {
		opts.Workers = m.Workers
	}
	if opts.Workers != m.Workers {
		return nil, fmt.Errorf("p2kvs: backup was taken with %d workers, cannot restore into %d", m.Workers, opts.Workers)
	}
	if opts.Engine == "" && m.Engine != "unspecified" {
		opts.Engine = EngineKind(m.Engine)
	}
	opts, fs, err := buildFS(opts)
	if err != nil {
		return nil, err
	}
	if want, got := engineFamily(EngineKind(m.Engine)), engineFamily(opts.Engine); want != got {
		return nil, fmt.Errorf("p2kvs: backup holds a %s-family image, cannot open as %s-family engine %q", want, got, opts.Engine)
	}
	switch m.Partitioner {
	case "", "hash":
	case "consistent":
		// An elastic store's image: reopen it elastic so keys route by
		// the same consistent-hash ring they were placed with.
		opts.Elastic = true
	default:
		return nil, fmt.Errorf("p2kvs: backup was taken with partitioner %q; this build cannot restore it", m.Partitioner)
	}
	if fs.Exists(fmt.Sprintf("%s/inst-%02d", opts.Dir, 0)) {
		return nil, fmt.Errorf("p2kvs: %s already holds a store; restore needs an empty destination", opts.Dir)
	}
	place := func(worker int, rel string) string {
		if worker < 0 {
			return opts.Dir + "/txn/" + rel
		}
		return fmt.Sprintf("%s/inst-%02d/%s", opts.Dir, worker, rel)
	}
	if _, err := checkpoint.Restore(src, backupDir, fs, place); err != nil {
		return nil, err
	}
	return openWithFS(opts, fs)
}

// ErrBackupCorrupt matches every error Restore reports for a damaged
// backup set (manifest corruption or file checksum mismatch).
var ErrBackupCorrupt = checkpoint.ErrCorrupt

// ErrBackupChecksum matches Restore failures where a file's content does
// not match the checksum recorded in the manifest.
var ErrBackupChecksum = checkpoint.ErrChecksumMismatch

// ErrNoBackup matches Restore on a directory holding no committed backup.
var ErrNoBackup = checkpoint.ErrNoManifest

// engineFamily groups engine kinds whose on-disk images are mutually
// restorable: the three LSM presets share one format.
func engineFamily(k EngineKind) string {
	switch k {
	case EngineWiredTiger:
		return "btree"
	case EngineKVell:
		return "kvell"
	default:
		return "lsm"
	}
}
