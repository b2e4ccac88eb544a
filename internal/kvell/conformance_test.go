package kvell

import (
	"testing"

	"p2kvs/internal/kv"
	"p2kvs/internal/kv/kvtest"
	"p2kvs/internal/vfs"
)

// TestConformance runs the engine contract (internal/kv/kvtest). KVell has
// no log: an acknowledged write is durable at the next Flush, not at the
// acknowledgement, so the suite restarts it with a clean Close only. The
// page cache is small enough that reads reach the slabs.
func TestConformance(t *testing.T) {
	kvtest.Run(t, kvtest.Config{
		Open: func(fs vfs.FS, dir string, _ func(uint64) bool) (kv.Engine, error) {
			return Open(dir, Options{FS: fs, Workers: 2, CacheBytes: 4 << 10})
		},
	})
}
