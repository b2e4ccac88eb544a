package btreekv

import (
	"testing"

	"p2kvs/internal/kv"
	"p2kvs/internal/kv/kvtest"
	"p2kvs/internal/vfs"
	"p2kvs/internal/wal"
)

// TestConformance runs the engine contract (internal/kv/kvtest) with a dirty
// budget a few hundred writes overrun, so reads cross journal and base.
func TestConformance(t *testing.T) {
	kvtest.Run(t, kvtest.Config{
		Open: func(fs vfs.FS, dir string, _ func(uint64) bool) (kv.Engine, error) {
			return Open(dir, Options{FS: fs, WALSync: wal.PolicyCommit, CheckpointBytes: 8 << 10})
		},
		CrashSafe: true,
	})
}
