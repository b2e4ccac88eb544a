package btreekv

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"p2kvs/internal/kv"
	"p2kvs/internal/vfs"
	"p2kvs/internal/wal"
)

func openSmall(t *testing.T, fs vfs.FS, dir string) *DB {
	t.Helper()
	db, err := Open(dir, Options{FS: fs, CheckpointBytes: 32 << 10, WALSync: wal.PolicyCommit})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestPutGetDelete(t *testing.T) {
	fs := vfs.NewMem()
	db := openSmall(t, fs, "wt")
	defer db.Close()
	db.Put([]byte("a"), []byte("1"))
	db.Put([]byte("b"), []byte("2"))
	if v, err := db.Get([]byte("a")); err != nil || string(v) != "1" {
		t.Fatalf("Get(a) = %q %v", v, err)
	}
	db.Delete([]byte("a"))
	if _, err := db.Get([]byte("a")); err != kv.ErrNotFound {
		t.Fatalf("Get(a) after delete = %v", err)
	}
	db.Put([]byte("b"), []byte("2x"))
	if v, _ := db.Get([]byte("b")); string(v) != "2x" {
		t.Fatal("overwrite lost")
	}
	if _, err := db.Get([]byte("zz")); err != kv.ErrNotFound {
		t.Fatalf("absent key err = %v", err)
	}
}

func TestCheckpointAndReadBack(t *testing.T) {
	fs := vfs.NewMem()
	db := openSmall(t, fs, "wt")
	defer db.Close()
	const n = 3000 // enough dirty bytes to force several checkpoints
	perm := rand.New(rand.NewSource(2)).Perm(n)
	for _, i := range perm {
		db.Put([]byte(fmt.Sprintf("key%06d", i)), []byte(fmt.Sprintf("val%d", i)))
	}
	m := db.Metrics()
	if m.Gen == 0 {
		t.Fatal("no checkpoint was triggered")
	}
	for i := 0; i < n; i += 53 {
		v, err := db.Get([]byte(fmt.Sprintf("key%06d", i)))
		if err != nil || string(v) != fmt.Sprintf("val%d", i) {
			t.Fatalf("Get(%d) = %q %v", i, v, err)
		}
	}
}

func TestOverwriteAndDeleteAcrossCheckpoints(t *testing.T) {
	fs := vfs.NewMem()
	db := openSmall(t, fs, "wt")
	defer db.Close()
	for i := 0; i < 500; i++ {
		db.Put([]byte(fmt.Sprintf("k%04d", i)), []byte("v1"))
	}
	db.Checkpoint()
	for i := 0; i < 500; i += 2 {
		db.Put([]byte(fmt.Sprintf("k%04d", i)), []byte("v2"))
	}
	for i := 0; i < 500; i += 5 {
		db.Delete([]byte(fmt.Sprintf("k%04d", i)))
	}
	db.Checkpoint()
	for i := 0; i < 500; i++ {
		key := fmt.Sprintf("k%04d", i)
		v, err := db.Get([]byte(key))
		switch {
		case i%5 == 0:
			if err != kv.ErrNotFound {
				t.Fatalf("deleted %s survived: %q %v", key, v, err)
			}
		case i%2 == 0:
			if string(v) != "v2" {
				t.Fatalf("%s = %q, want v2", key, v)
			}
		default:
			if string(v) != "v1" {
				t.Fatalf("%s = %q, want v1", key, v)
			}
		}
	}
}

func TestCrashRecoveryJournal(t *testing.T) {
	fs := vfs.NewMem()
	db := openSmall(t, fs, "wt")
	for i := 0; i < 200; i++ {
		db.Put([]byte(fmt.Sprintf("k%04d", i)), []byte(fmt.Sprintf("v%d", i)))
	}
	db.Delete([]byte("k0007"))
	fs.Crash()
	fs.Restart()

	db2, err := Open("wt", Options{FS: fs, CheckpointBytes: 32 << 10, WALSync: wal.PolicyCommit})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("k%04d", i)
		v, err := db2.Get([]byte(key))
		if i == 7 {
			if err != kv.ErrNotFound {
				t.Fatalf("deleted key recovered: %q", v)
			}
			continue
		}
		if err != nil || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("Get(%s) = %q %v", key, v, err)
		}
	}
}

func TestCleanReopen(t *testing.T) {
	fs := vfs.NewMem()
	db := openSmall(t, fs, "wt")
	for i := 0; i < 1000; i++ {
		db.Put([]byte(fmt.Sprintf("k%05d", i)), []byte("v"))
	}
	db.Close()
	db2, err := Open("wt", Options{FS: fs, CheckpointBytes: 32 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	for i := 0; i < 1000; i += 111 {
		if _, err := db2.Get([]byte(fmt.Sprintf("k%05d", i))); err != nil {
			t.Fatalf("key %d lost on clean reopen: %v", i, err)
		}
	}
}

func TestIterator(t *testing.T) {
	fs := vfs.NewMem()
	db := openSmall(t, fs, "wt")
	defer db.Close()
	for i := 0; i < 300; i++ {
		db.Put([]byte(fmt.Sprintf("k%04d", i)), []byte(fmt.Sprintf("v%d", i)))
	}
	db.Checkpoint()
	// Post-checkpoint mutations must merge into the scan.
	db.Put([]byte("k0050"), []byte("updated"))
	db.Delete([]byte("k0100"))
	db.Put([]byte("zz-new"), []byte("tail"))

	it, err := db.NewIterator()
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	count := 0
	prev := ""
	for it.SeekToFirst(); it.Valid(); it.Next() {
		k := string(it.Key())
		if prev != "" && k <= prev {
			t.Fatalf("out of order: %q after %q", k, prev)
		}
		prev = k
		switch k {
		case "k0050":
			if string(it.Value()) != "updated" {
				t.Fatalf("k0050 = %q", it.Value())
			}
		case "k0100":
			t.Fatal("deleted key surfaced in scan")
		}
		count++
	}
	if count != 300 { // 300 - 1 deleted + 1 new
		t.Fatalf("scanned %d, want 300", count)
	}

	it2, _ := db.NewIterator()
	defer it2.Close()
	it2.Seek([]byte("k0200"))
	if !it2.Valid() || string(it2.Key()) != "k0200" {
		t.Fatalf("Seek landed on %q", it2.Key())
	}
}

func TestNoBatchCaps(t *testing.T) {
	fs := vfs.NewMem()
	db := openSmall(t, fs, "wt")
	defer db.Close()
	caps := kv.CapsOf(db)
	if caps.BatchWrite || caps.MultiGet {
		t.Fatalf("WiredTiger-style engine must report no batch caps: %+v", caps)
	}
}

func TestClosedOps(t *testing.T) {
	fs := vfs.NewMem()
	db := openSmall(t, fs, "wt")
	db.Put([]byte("k"), []byte("v"))
	db.Close()
	if err := db.Close(); err != nil {
		t.Fatal("double close")
	}
	if err := db.Put([]byte("a"), []byte("b")); err != kv.ErrClosed {
		t.Fatalf("Put after close = %v", err)
	}
	if _, err := db.Get([]byte("k")); err != kv.ErrClosed {
		t.Fatalf("Get after close = %v", err)
	}
}

func TestQuickAgainstMap(t *testing.T) {
	type op struct {
		Key    uint8
		Val    uint16
		Delete bool
	}
	fn := func(ops []op) bool {
		fs := vfs.NewMem()
		db, err := Open("q", Options{FS: fs, CheckpointBytes: 2 << 10})
		if err != nil {
			return false
		}
		defer db.Close()
		model := map[string]string{}
		for _, o := range ops {
			k := fmt.Sprintf("key-%03d", o.Key%64)
			if o.Delete {
				delete(model, k)
				if db.Delete([]byte(k)) != nil {
					return false
				}
			} else {
				v := fmt.Sprintf("val-%d", o.Val)
				model[k] = v
				if db.Put([]byte(k), []byte(v)) != nil {
					return false
				}
			}
		}
		for k, want := range model {
			v, err := db.Get([]byte(k))
			if err != nil || string(v) != want {
				return false
			}
		}
		// Absent probes.
		for i := 64; i < 70; i++ {
			if _, err := db.Get([]byte(fmt.Sprintf("key-%03d", i))); err != kv.ErrNotFound {
				return false
			}
		}
		return true
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestCheckpointEmptyStoreAfterDeletes(t *testing.T) {
	// Deleting everything then checkpointing leaves a generation with no
	// checkpoint file; reopen must handle it.
	fs := vfs.NewMem()
	db := openSmall(t, fs, "wt")
	for i := 0; i < 50; i++ {
		db.Put([]byte(fmt.Sprintf("k%02d", i)), []byte("v"))
	}
	for i := 0; i < 50; i++ {
		db.Delete([]byte(fmt.Sprintf("k%02d", i)))
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Get([]byte("k00")); err != kv.ErrNotFound {
		t.Fatalf("deleted key visible: %v", err)
	}
	db.Close()

	db2, err := Open("wt", Options{FS: fs, CheckpointBytes: 32 << 10})
	if err != nil {
		t.Fatalf("reopen after empty checkpoint: %v", err)
	}
	defer db2.Close()
	if _, err := db2.Get([]byte("k00")); err != kv.ErrNotFound {
		t.Fatal("deleted key resurrected")
	}
	if err := db2.Put([]byte("fresh"), []byte("v")); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentReadersWithWriter(t *testing.T) {
	fs := vfs.NewMem()
	db := openSmall(t, fs, "wt")
	defer db.Close()
	stop := make(chan struct{})
	go func() {
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			db.Put([]byte(fmt.Sprintf("w%04d", i%500)), []byte(fmt.Sprintf("v%d", i)))
		}
	}()
	for i := 0; i < 2000; i++ {
		if _, err := db.Get([]byte(fmt.Sprintf("w%04d", i%500))); err != nil && err != kv.ErrNotFound {
			t.Fatal(err)
		}
	}
	close(stop)
}
