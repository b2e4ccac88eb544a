package main

import (
	"os"
	"path/filepath"
	"testing"

	"p2kvs"
)

// TestRestoreIntoLeavesHostDirOfInMemoryStore: a full sync wipes the data
// directory of an on-disk replica before restoring into it, but an
// in-memory replica never used that host path, so a file another store
// keeps there survives its full sync.
func TestRestoreIntoLeavesHostDirOfInMemoryStore(t *testing.T) {
	tmp := t.TempDir()
	src, err := p2kvs.Open(p2kvs.Options{Dir: "primary", InMemory: true, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := src.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	image := filepath.Join(tmp, "image")
	if _, err := p2kvs.Backup(src, image); err != nil {
		t.Fatal(err)
	}
	src.Close()

	for _, inMemory := range []bool{true, false} {
		dir := filepath.Join(tmp, "replica-db")
		sentinel := filepath.Join(dir, "sentinel")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(sentinel, []byte("another store's"), 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := restoreInto(p2kvs.Options{Dir: dir, InMemory: inMemory, Workers: 2})(nil, image)
		if err != nil {
			t.Fatalf("inmemory=%v: restore: %v", inMemory, err)
		}
		if v, err := st.Get([]byte("k")); err != nil || string(v) != "v" {
			t.Fatalf("inmemory=%v: restored store Get = %q, %v", inMemory, v, err)
		}
		st.Close()
		if _, err := os.Stat(sentinel); inMemory != (err == nil) {
			t.Errorf("inmemory=%v: sentinel under -dir after the full sync: stat err = %v", inMemory, err)
		}
		os.RemoveAll(dir)
	}
}
