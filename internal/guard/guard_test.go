package guard_test

import (
	"errors"
	"testing"
	"time"

	"p2kvs/internal/btreekv"
	"p2kvs/internal/guard"
	"p2kvs/internal/kv"
	"p2kvs/internal/kvell"
	"p2kvs/internal/lsm"
	"p2kvs/internal/raceflag"
	"p2kvs/internal/vfs"
	"p2kvs/internal/wal"
)

// engine is what an engine family gets from its guard. (What the guard does
// to a full disk, family by family, is the guard case of internal/kv/kvtest.)
type engine interface {
	kv.Engine
	kv.HealthReporter
}

// families opens one engine of each family at "db" on fs. Each constructs
// exactly one guard.
var families = []struct {
	name string
	open func(fs vfs.FS) (engine, error)
}{
	{"lsm", func(fs vfs.FS) (engine, error) {
		o := lsm.RocksDBOptions(fs)
		o.WALSync = wal.PolicyCommit
		o.BgBaseBackoff, o.BgMaxBackoff = time.Millisecond, 4*time.Millisecond
		return lsm.Open("db", o)
	}},
	{"btreekv", func(fs vfs.FS) (engine, error) {
		return btreekv.Open("db", btreekv.Options{FS: fs, WALSync: wal.PolicyCommit})
	}},
	{"kvell", func(fs vfs.FS) (engine, error) {
		return kvell.Open("db", kvell.Options{FS: fs, Workers: 2})
	}},
}

// TestFirstFailureWins drives the latch directly: the guard keeps the first
// cause, and a later space exhaustion neither flags disk-full nor starts
// the poll.
func TestFirstFailureWins(t *testing.T) {
	qfs := vfs.NewQuota(vfs.NewMem(), -1)
	resumed := false
	g := guard.New("test", qfs, "db", nil, func() error { resumed = true; return nil }, time.Millisecond, time.Millisecond)
	defer g.Close()
	g.Retrying(errors.New("transient"))
	if h := g.Health(); h.State != kv.StateRetrying || h.Err == nil || g.Err() != nil {
		t.Fatalf("retrying: %+v, gate %v", h, g.Err())
	}
	g.Degrade("flush", errors.New("permanent"))
	g.Degrade("wal append", vfs.ErrNoSpace)
	g.Retrying(nil)
	time.Sleep(10 * time.Millisecond)
	h := g.Health()
	var de *kv.DegradedError
	if h.State != kv.StateReadOnly || h.DiskFull || h.DiskFullEvents != 0 || !errors.As(g.Err(), &de) || de.Job != "flush" || resumed {
		t.Fatalf("after two failures: %+v, gate %v, resumed %v", h, g.Err(), resumed)
	}
	g.Clear()
	if h := g.Health(); h.State != kv.StateHealthy || h.Err != nil || g.Err() != nil {
		t.Fatalf("after Clear: %+v, gate %v", h, g.Err())
	}
}

// TestHealthAllocs: a healthy Health takes no lock and allocates nothing in
// any family — the accessing layer asks on every write admission.
func TestHealthAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation pins are not meaningful under the race detector")
	}
	for _, fam := range families {
		e, err := fam.open(vfs.NewMem())
		if err != nil {
			t.Fatal(err)
		}
		var h kv.Health
		if n := testing.AllocsPerRun(100, func() { h = e.Health() }); n != 0 || h.State != kv.StateHealthy {
			t.Errorf("%s: healthy Health() allocates %.0f (state %v), want 0", fam.name, n, h.State)
		}
		e.Close()
	}
}
