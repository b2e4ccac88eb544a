package lsm

import (
	"fmt"
	"testing"

	"p2kvs/internal/kv"
	"p2kvs/internal/vfs"
)

// TestGetSnapshotDuringCompaction: point reads taken while compactions
// churn must never observe missing or stale data.
func TestGetSnapshotDuringCompaction(t *testing.T) {
	fs := vfs.NewMem()
	db, _ := Open("db", smallOpts(fs))
	defer db.Close()
	const n = 2000
	stop := make(chan struct{})
	errc := make(chan error, 1)
	go func() {
		defer close(errc)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			key := fmt.Sprintf("k%04d", i%n)
			if err := db.Put([]byte(key), []byte(fmt.Sprintf("v%d", i))); err != nil {
				errc <- err
				return
			}
		}
	}()
	for round := 0; round < 50; round++ {
		key := fmt.Sprintf("k%04d", round*37%n)
		v, err := db.Get([]byte(key))
		if err != nil && err.Error() != "kv: key not found" {
			t.Fatalf("Get(%s) = %v", key, err)
		}
		_ = v
	}
	close(stop)
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
}

// TestReadsRaceCompactionFileDeletion hammers reads and iterators while
// compactions churn file sets; stale-version file deletions must be
// absorbed by the retry path, never surfacing as open errors.
func TestReadsRaceCompactionFileDeletion(t *testing.T) {
	fs := vfs.NewMem()
	opts := smallOpts(fs)
	opts.MemTableSize = 4 << 10
	opts.BaseLevelSize = 16 << 10
	opts.TargetFileSize = 4 << 10
	opts.L0CompactionTrigger = 2
	db, _ := Open("db", opts)
	defer db.Close()

	const n = 400
	for i := 0; i < n; i++ {
		db.Put([]byte(fmt.Sprintf("k%04d", i)), make([]byte, 64))
	}
	stop := make(chan struct{})
	werr := make(chan error, 1)
	go func() {
		defer close(werr)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := db.Put([]byte(fmt.Sprintf("k%04d", i%n)), make([]byte, 64)); err != nil {
				werr <- err
				return
			}
		}
	}()
	for round := 0; round < 300; round++ {
		key := []byte(fmt.Sprintf("k%04d", round%n))
		if _, err := db.Get(key); err != nil && err != kv.ErrNotFound {
			t.Fatalf("Get: %v", err)
		}
		if round%25 == 0 {
			it, err := db.NewIterator()
			if err != nil {
				t.Fatalf("NewIterator: %v", err)
			}
			it.Seek(key)
			_ = it.Valid()
			it.Close()
		}
		if round%40 == 0 {
			if _, err := db.MultiGet([][]byte{key, []byte("k0001"), []byte("k0002")}); err != nil {
				t.Fatalf("MultiGet: %v", err)
			}
		}
	}
	close(stop)
	if err := <-werr; err != nil {
		t.Fatal(err)
	}
}
