package btreekv

import (
	"fmt"
	"testing"
	"time"

	"p2kvs/internal/vfs"
)

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
