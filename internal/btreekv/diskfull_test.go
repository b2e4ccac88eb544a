package btreekv

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"p2kvs/internal/kv"
	"p2kvs/internal/vfs"
	"p2kvs/internal/wal"
)

func TestDiskFullDegradesAndAutoResumes(t *testing.T) {
	qfs := vfs.NewQuota(vfs.NewMem(), 128<<10)
	d, err := Open("db", Options{FS: qfs, WALSync: wal.PolicyCommit, CheckpointBytes: 16 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	var acked []string
	for i := 0; i < 100000; i++ {
		k := fmt.Sprintf("key-%06d", i)
		err := d.Put([]byte(k), make([]byte, 512))
		if err == nil {
			acked = append(acked, k)
			continue
		}
		if !vfs.IsNoSpace(err) && !errors.Is(err, kv.ErrDegraded) {
			t.Fatalf("Put(%s): unexpected error class: %v", k, err)
		}
		break
	}
	if len(acked) == 0 {
		t.Fatal("no write ever succeeded")
	}

	// The store settles into disk-full read-only mode.
	deadline := time.Now().Add(5 * time.Second)
	for {
		h := d.Health()
		if h.State == kv.StateReadOnly && h.DiskFull {
			if h.DiskFullEvents == 0 {
				t.Fatal("DiskFull set but DiskFullEvents == 0")
			}
			break
		}
		// Another write may be needed to trip degradation (the first
		// ENOSPC may have surfaced directly without a degrade, e.g. from
		// a checkpoint journal-create failure).
		d.Put([]byte("trip"), []byte("v"))
		if time.Now().After(deadline) {
			t.Fatalf("store never entered disk-full read-only mode: %+v", h)
		}
		time.Sleep(time.Millisecond)
	}
	if err := d.Put([]byte("blocked"), []byte("v")); !errors.Is(err, kv.ErrDegraded) {
		t.Fatalf("write while disk-full: got %v, want ErrDegraded", err)
	}

	// Reads keep serving acked state throughout.
	for _, k := range []string{acked[0], acked[len(acked)/2], acked[len(acked)-1]} {
		if _, err := d.Get([]byte(k)); err != nil {
			t.Fatalf("Get(%s) while disk-full: %v", k, err)
		}
	}

	// Space comes back; the watchdog must auto-resume on its own.
	qfs.SetBudget(64 << 20)
	deadline = time.Now().Add(10 * time.Second)
	for {
		if err := d.Put([]byte("after"), []byte("v")); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("writes never resumed after space freed: health %+v", d.Health())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if h := d.Health(); h.AutoResumes == 0 {
		t.Fatalf("auto-resume not counted: %+v", h)
	}
	if _, err := d.Get([]byte(acked[0])); err != nil {
		t.Fatalf("Get after resume: %v", err)
	}
}

// TestReclaimSpaceDropsLeftovers plants stale-generation and .new files,
// degrades the store, and checks the watchdog GC removes exactly them.
func TestReclaimSpaceDropsLeftovers(t *testing.T) {
	qfs := vfs.NewQuota(vfs.NewMem(), -1)
	d, err := Open("db", Options{FS: qfs, CheckpointBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	if err := d.Put([]byte("k"), make([]byte, 4<<10)); err != nil {
		t.Fatal(err)
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	garbage := []string{"db/ckpt-999999.db", "db/journal-999999.log", "db/META.new"}
	for _, name := range garbage {
		f, err := qfs.Create(name)
		if err != nil {
			t.Fatal(err)
		}
		f.Write([]byte("garbage"))
		f.Close()
	}

	qfs.SetBudget(1)
	var degraded bool
	for i := 0; i < 10000; i++ {
		if err := d.Put([]byte(fmt.Sprintf("fill-%d", i)), make([]byte, 1024)); err != nil {
			degraded = true
			break
		}
	}
	if !degraded {
		t.Fatal("never degraded")
	}
	qfs.SetBudget(-1)
	deadline := time.Now().Add(10 * time.Second)
	for {
		gone := true
		for _, name := range garbage {
			if qfs.Exists(name) {
				gone = false
			}
		}
		if gone {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("garbage not collected: %v", garbage)
		}
		time.Sleep(5 * time.Millisecond)
	}
	deadline = time.Now().Add(10 * time.Second)
	for {
		if err := d.Put([]byte("post"), []byte("v")); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("never resumed")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if v, err := d.Get([]byte("k")); err != nil || len(v) != 4<<10 {
		t.Fatalf("checkpointed key lost after GC: v=%d bytes, err=%v", len(v), err)
	}
}
