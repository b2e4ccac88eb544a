package lsm

import (
	"testing"
	"time"

	"p2kvs/internal/kv"
	"p2kvs/internal/kv/kvtest"
	"p2kvs/internal/vfs"
	"p2kvs/internal/wal"
)

// The engine contract (internal/kv/kvtest) over the three presets, at a
// geometry where a few hundred writes rotate, flush and compact.
func TestConformanceRocksDB(t *testing.T)   { conformance(t, RocksDBOptions) }
func TestConformanceLevelDB(t *testing.T)   { conformance(t, LevelDBOptions) }
func TestConformancePebblesDB(t *testing.T) { conformance(t, PebblesDBOptions) }

func conformance(t *testing.T, preset func(vfs.FS) Options) {
	kvtest.Run(t, kvtest.Config{
		Open: func(fs vfs.FS, dir string, filter func(uint64) bool) (kv.Engine, error) {
			o := preset(fs)
			o.MemTableSize, o.BaseLevelSize, o.TargetFileSize = 4<<10, 16<<10, 4<<10
			o.WALSync = wal.PolicyCommit
			o.BgBaseBackoff, o.BgMaxBackoff = time.Millisecond, 4*time.Millisecond
			return OpenWith(dir, o, OpenOptions{RecoverFilter: filter})
		},
		CrashSafe: true,
		Maintain:  func(e kv.Engine) error { return e.(*DB).CompactAll() },
	})
}
