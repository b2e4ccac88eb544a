package p2kvs

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"p2kvs/internal/vfs"
)

func fillStore(t *testing.T, s *Store, n int) []Pair {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := s.Put([]byte(fmt.Sprintf("key-%04d", i)), []byte(fmt.Sprintf("val-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i += 9 {
		if err := s.Delete([]byte(fmt.Sprintf("key-%04d", i))); err != nil {
			t.Fatal(err)
		}
	}
	pairs, err := s.Range(nil, []byte("\xff"))
	if err != nil {
		t.Fatal(err)
	}
	return pairs
}

func samePairs(t *testing.T, tag string, want, got []Pair) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d pairs, want %d", tag, len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(want[i].Key, got[i].Key) || !bytes.Equal(want[i].Value, got[i].Value) {
			t.Fatalf("%s: pair %d = %q=%q, want %q=%q", tag, i,
				got[i].Key, got[i].Value, want[i].Key, want[i].Value)
		}
	}
}

// TestBackupRestoreOnDisk runs the full public path on the host
// filesystem: open → fill → Backup → Backup again (incremental) →
// Restore → identical dump. On one filesystem the second backup must
// reuse the image's unchanged immutable files instead of re-copying them.
func TestBackupRestoreOnDisk(t *testing.T) {
	tmp := t.TempDir()
	s, err := Open(Options{Dir: filepath.Join(tmp, "db"), Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	want := fillStore(t, s, 500)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}

	bak := filepath.Join(tmp, "bak")
	info, err := Backup(s, bak)
	if err != nil {
		t.Fatalf("Backup: %v", err)
	}
	if info.Seq != 1 || info.Workers != 3 || info.Files == 0 || info.BarrierNs <= 0 {
		t.Fatalf("BackupInfo = %+v", info)
	}
	info2, err := Backup(s, bak)
	if err != nil {
		t.Fatalf("second Backup: %v", err)
	}
	if info2.Seq != 2 {
		t.Fatalf("second backup seq = %d", info2.Seq)
	}

	r, err := Restore(bak, Options{Dir: filepath.Join(tmp, "restored")})
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	defer r.Close()
	got, err := r.Range(nil, []byte("\xff"))
	if err != nil {
		t.Fatal(err)
	}
	samePairs(t, "restored", want, got)

	// Shape adoption and mismatch rejection.
	if _, err := Restore(bak, Options{Dir: filepath.Join(tmp, "bad"), Workers: 5}); err == nil {
		t.Fatal("Restore with mismatched worker count succeeded")
	}
	if _, err := Restore(bak, Options{Dir: filepath.Join(tmp, "restored")}); err == nil {
		t.Fatal("Restore into a directory already holding a store succeeded")
	}
}

// TestBackupInMemoryStore exercises the cross-filesystem path: the store
// lives on MemFS, the backup lands on the host filesystem (links are
// impossible, so everything is copied), and Restore rebuilds a real
// on-disk store from it.
func TestBackupInMemoryStore(t *testing.T) {
	tmp := t.TempDir()
	s, err := Open(Options{Dir: "db", Workers: 2, InMemory: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	want := fillStore(t, s, 300)

	bak := filepath.Join(tmp, "bak")
	if _, err := Backup(s, bak); err != nil {
		t.Fatalf("Backup: %v", err)
	}
	r, err := Restore(bak, Options{Dir: filepath.Join(tmp, "restored")})
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	defer r.Close()
	got, err := r.Range(nil, []byte("\xff"))
	if err != nil {
		t.Fatal(err)
	}
	samePairs(t, "restored", want, got)
}

func TestRestoreErrorTaxonomy(t *testing.T) {
	tmp := t.TempDir()
	if _, err := Restore(filepath.Join(tmp, "nothing"), Options{Dir: filepath.Join(tmp, "out")}); !errors.Is(err, ErrNoBackup) {
		t.Fatalf("restore from empty dir: %v", err)
	}

	s, err := Open(Options{Dir: "db", Workers: 2, InMemory: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	fillStore(t, s, 200)
	bak := filepath.Join(tmp, "bak")
	if _, err := Backup(s, bak); err != nil {
		t.Fatal(err)
	}

	// Tamper with the largest image file: restore must fail typed and
	// must not leave a store behind.
	var victim string
	var size int64
	err = filepath.Walk(bak, func(path string, fi os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if !fi.IsDir() && fi.Name() != "CHECKPOINT" && fi.Size() > size {
			victim, size = path, fi.Size()
		}
		return nil
	})
	if err != nil || victim == "" {
		t.Fatalf("no image file to tamper with: %v", err)
	}
	data, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x20
	if err := os.WriteFile(victim, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Restore(bak, Options{Dir: filepath.Join(tmp, "out")}); !errors.Is(err, ErrBackupChecksum) {
		t.Fatalf("tampered restore: %v (want ErrBackupChecksum)", err)
	}
	if !errors.Is(ErrBackupChecksum, ErrBackupCorrupt) {
		t.Fatal("checksum mismatch must also match the generic corrupt class")
	}
}

// TestRestoreReplicaLeavesHostDirOfInMemoryStore: a full sync wipes the
// data directory of an on-disk replica before restoring into it, but an
// in-memory replica never used that host path, so a file another store
// keeps there survives its full sync.
func TestRestoreReplicaLeavesHostDirOfInMemoryStore(t *testing.T) {
	tmp := t.TempDir()
	src, err := Open(Options{Dir: "primary", InMemory: true, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := src.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	image := filepath.Join(tmp, "image")
	if _, err := Backup(src, image); err != nil {
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
		st, err := RestoreReplica(Options{Dir: dir, InMemory: inMemory, Workers: 2})(vfs.NewOS(), image)
		if err != nil {
			t.Fatalf("inmemory=%v: restore: %v", inMemory, err)
		}
		if v, err := st.Get([]byte("k")); err != nil || string(v) != "v" {
			t.Fatalf("inmemory=%v: restored store Get = %q, %v", inMemory, v, err)
		}
		st.Close()
		if _, err := os.Stat(sentinel); inMemory != (err == nil) {
			t.Errorf("inmemory=%v: sentinel under Dir after the full sync: stat err = %v", inMemory, err)
		}
		os.RemoveAll(dir)
	}
}
