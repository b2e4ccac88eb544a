package guard_test

import (
	"errors"
	"fmt"
	"runtime"
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

// engine is all the contract test may know of an engine family.
type engine interface {
	kv.Engine
	kv.HealthReporter
	kv.Resumer
}

// families opens one engine of each family at "db" on fs. Each constructs
// exactly one guard; nothing below reaches past the kv interfaces.
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

// eventually polls cond for up to two seconds.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(2 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// fillDisk shrinks the budget under what is already stored — every write,
// sync and create fails, the guard's space probe included — and writes
// fresh keys until the engine reports the failure.
func fillDisk(t *testing.T, e engine, qfs *vfs.QuotaFS, round int) {
	t.Helper()
	qfs.SetBudget(1)
	for i := 0; ; i++ {
		err := e.Put([]byte(fmt.Sprintf("fill-%d-%06d", round, i)), make([]byte, 400))
		if err != nil {
			if !vfs.IsNoSpace(err) {
				t.Fatalf("write on a full disk: %v, want a no-space error", err)
			}
			break
		}
		if i == 10000 {
			t.Fatal("never hit the quota")
		}
	}
	eventually(t, "disk-full read-only mode", func() bool {
		h := e.Health()
		return h.State == kv.StateReadOnly && h.DiskFull
	})
}

// TestGuardContract: what happens when an engine can no longer write is one
// behaviour, whichever family the engine belongs to.
func TestGuardContract(t *testing.T) {
	for _, fam := range families {
		t.Run(fam.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			qfs := vfs.NewQuota(vfs.NewMem(), -1)
			e, err := fam.open(qfs)
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			for i := 0; i < 20; i++ {
				if err := e.Put([]byte(fmt.Sprintf("acked-%02d", i)), []byte("v")); err != nil {
					t.Fatal(err)
				}
			}
			if h := e.Health(); h.State != kv.StateHealthy || h.Err != nil {
				t.Fatalf("before any failure: %+v", h)
			}
			open := runtime.NumGoroutine()

			// Full disk: read-only, flagged disk-full, counted once.
			fillDisk(t, e, qfs, 1)
			err = e.Put([]byte("blocked"), []byte("v"))
			var de *kv.DegradedError
			if !errors.Is(err, kv.ErrDegraded) || !vfs.IsNoSpace(err) || !errors.As(err, &de) || de.Engine != fam.name {
				t.Fatalf("write while disk-full: %v (%+v), want a %s kv.DegradedError wrapping no-space", err, de, fam.name)
			}
			for i := 0; i < 20; i++ {
				if v, err := e.Get([]byte(fmt.Sprintf("acked-%02d", i))); err != nil || string(v) != "v" {
					t.Fatalf("read while disk-full: %q, %v", v, err)
				}
			}

			// A second failure while degraded does not replace the first cause.
			first := e.Health().Err.Error()
			if err := e.Flush(); err == nil {
				t.Fatal("Flush on a full disk succeeded")
			}
			time.Sleep(30 * time.Millisecond) // several poll rounds, every probe fails
			if h := e.Health(); h.Err.Error() != first || h.DiskFullEvents != 1 || h.AutoResumes != 0 {
				t.Fatalf("while the disk stays full: %+v, want cause %q, 1 event, no resume", h, first)
			}

			// Space comes back: one auto-resume, writes land again, and the
			// poll is gone once nothing is degraded.
			qfs.SetBudget(64 << 20)
			eventually(t, "auto-resume", func() bool { return e.Health().State == kv.StateHealthy })
			if h := e.Health(); h.AutoResumes != 1 || h.DiskFullEvents != 1 || h.DiskFull || h.Err != nil {
				t.Fatalf("after auto-resume: %+v", h)
			}
			eventually(t, "the first write after resume", func() bool { return e.Put([]byte("after"), []byte("v")) == nil })
			eventually(t, "the poll to exit", func() bool { return runtime.NumGoroutine() <= open })
			if h := e.Health(); h.AutoResumes != 1 {
				t.Fatalf("a resumed engine was resumed again: %+v", h)
			}

			// A later incident starts a fresh poll; Close in the middle of
			// it leaves no goroutine behind.
			fillDisk(t, e, qfs, 2)
			if h := e.Health(); h.DiskFullEvents != 2 {
				t.Fatalf("second incident: %+v, want 2 disk-full events", h)
			}
			e.Close()
			eventually(t, "every goroutine to exit after Close", func() bool { return runtime.NumGoroutine() <= before })
		})
	}
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
