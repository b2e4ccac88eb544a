package btreekv

import (
	"fmt"
	"math/rand"
	"testing"

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
