package lsm

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"p2kvs/internal/kv"
	"p2kvs/internal/vfs"
	"p2kvs/internal/wal"
)

// fillUntilNoSpace writes until the engine reports a space-exhaustion
// failure, returning the keys that were acked before it.
func fillUntilNoSpace(t *testing.T, d *DB) []string {
	t.Helper()
	var acked []string
	for i := 0; i < 100000; i++ {
		k := fmt.Sprintf("key-%06d", i)
		err := d.Put([]byte(k), make([]byte, 512))
		if err == nil {
			acked = append(acked, k)
			continue
		}
		if vfs.IsNoSpace(err) || errors.Is(err, kv.ErrDegraded) {
			return acked
		}
		t.Fatalf("Put(%s): unexpected error class: %v", k, err)
	}
	t.Fatal("never hit the quota")
	return nil
}

func TestDiskFullDegradesAndAutoResumes(t *testing.T) {
	qfs := vfs.NewQuota(vfs.NewMem(), 256<<10)
	o := RocksDBOptions(qfs)
	o.MemTableSize = 16 << 10
	o.WALSync = wal.PolicyCommit
	o.BgBaseBackoff = time.Millisecond
	o.BgMaxBackoff = 8 * time.Millisecond
	d, err := Open("db", o)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	acked := fillUntilNoSpace(t, d)
	if len(acked) == 0 {
		t.Fatal("no write ever succeeded")
	}

	// The engine must settle into disk-full read-only mode: writes fail
	// fast with ErrDegraded, health says DiskFull.
	deadline := time.Now().Add(5 * time.Second)
	for {
		h := d.Health()
		if h.State == kv.StateReadOnly && h.DiskFull {
			if h.DiskFullEvents == 0 {
				t.Fatal("DiskFull set but DiskFullEvents == 0")
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("engine never entered disk-full read-only mode: %+v", h)
		}
		time.Sleep(time.Millisecond)
	}
	if err := d.Put([]byte("blocked"), []byte("v")); !errors.Is(err, kv.ErrDegraded) {
		t.Fatalf("write while disk-full: got %v, want ErrDegraded", err)
	}

	// Reads keep serving the acked state throughout.
	for _, k := range []string{acked[0], acked[len(acked)/2], acked[len(acked)-1]} {
		if _, err := d.Get([]byte(k)); err != nil {
			t.Fatalf("Get(%s) while disk-full: %v", k, err)
		}
	}

	// Space comes back; the watchdog must auto-resume without any Resume
	// call from us.
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
	// Acked state survived the episode.
	if _, err := d.Get([]byte(acked[0])); err != nil {
		t.Fatalf("Get after resume: %v", err)
	}
}

// TestReclaimSpaceDropsUnreferencedFiles plants an orphan SST and a
// pre-LogNum log, degrades the engine with ENOSPC, and checks the GC
// removes exactly the garbage.
func TestReclaimSpaceDropsUnreferencedFiles(t *testing.T) {
	qfs := vfs.NewQuota(vfs.NewMem(), -1)
	o := RocksDBOptions(qfs)
	o.MemTableSize = 8 << 10
	d, err := Open("db", o)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	// Flush something so the manifest's LogNum advances past the first log.
	if err := d.Put([]byte("k"), make([]byte, 4<<10)); err != nil {
		t.Fatal(err)
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}

	// Plant garbage: an SST no version references and a stale log.
	for _, name := range []string{"db/999999.sst", "db/000000.log"} {
		f, err := qfs.Create(name)
		if err != nil {
			t.Fatal(err)
		}
		f.Write([]byte("garbage"))
		f.Close()
	}

	// Degrade via ENOSPC and let the watchdog's first probe run the GC.
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
	for qfs.Exists("db/999999.sst") || qfs.Exists("db/000000.log") {
		if time.Now().After(deadline) {
			t.Fatalf("garbage not collected: sst=%v log=%v",
				qfs.Exists("db/999999.sst"), qfs.Exists("db/000000.log"))
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Live files must survive GC: the store still serves its data after
	// auto-resume.
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
		t.Fatalf("flushed key lost after GC: v=%d bytes, err=%v", len(v), err)
	}
}
