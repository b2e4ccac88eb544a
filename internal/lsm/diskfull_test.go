package lsm

import (
	"fmt"
	"testing"
	"time"

	"p2kvs/internal/vfs"
)

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
