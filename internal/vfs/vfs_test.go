package vfs

import (
	"bytes"
	"io"
	"testing"
	"testing/quick"
)

func TestMemFSCreateWriteRead(t *testing.T) {
	fs := NewMem()
	f, err := fs.Create("dir/a.log")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("hello ")); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("world")); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := fs.Open("dir/a.log")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 11)
	if _, err := r.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "hello world" {
		t.Fatalf("got %q", buf)
	}
	if sz, _ := r.Size(); sz != 11 {
		t.Fatalf("size = %d, want 11", sz)
	}
}

func TestMemFSReadAtOffsets(t *testing.T) {
	fs := NewMem()
	f, _ := fs.Create("f")
	f.Write([]byte("0123456789"))
	buf := make([]byte, 4)
	if n, err := f.ReadAt(buf, 3); err != nil || n != 4 || string(buf) != "3456" {
		t.Fatalf("ReadAt(3) = %d %v %q", n, err, buf[:n])
	}
	// Partial read past EOF.
	if n, err := f.ReadAt(buf, 8); err != io.EOF || n != 2 || string(buf[:n]) != "89" {
		t.Fatalf("ReadAt(8) = %d %v %q", n, err, buf[:n])
	}
	// Fully past EOF.
	if _, err := f.ReadAt(buf, 10); err != io.EOF {
		t.Fatalf("ReadAt(10) err = %v, want EOF", err)
	}
}

// TestReadAtBoundarySemantics pins memFile.ReadAt to os.File.ReadAt
// semantics at the end-of-file boundaries and across MemFS chunk edges by
// running the same table against both implementations, on a file of more
// than 512 KiB (eight chunks).
func TestReadAtBoundarySemantics(t *testing.T) {
	const size = 600<<10 + 3
	content := make([]byte, size)
	for i := range content {
		content[i] = byte(i % 251)
	}

	mem := NewMem()
	mf, _ := mem.Create("f")
	mf.Write(content)

	osfs := NewOS()
	path := t.TempDir() + "/f"
	wf, err := osfs.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	wf.Write(content)
	wf.Close()
	of, err := osfs.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer of.Close()

	cases := []struct {
		name    string
		bufLen  int
		off     int64
		wantN   int
		wantErr error
	}{
		{"interior full read", 4, 3, 4, nil},
		{"read across the first chunk edge", 8, 4<<10 - 4, 8, nil},
		{"read across where chunks stop doubling", 4 << 10, 252<<10 - 100, 4 << 10, nil},
		{"read over seven chunks", 500 << 10, 10 << 10, 500 << 10, nil},
		{"read ending exactly at EOF", 4, size - 4, 4, nil},
		{"whole file exactly", size, 0, size, nil},
		{"short read crossing EOF", 4, size - 2, 2, io.EOF},
		{"short multi-chunk read crossing EOF", 400 << 10, 300 << 10, size - 300<<10, io.EOF},
		{"read starting at EOF", 4, size, 0, io.EOF},
		{"read starting past EOF", 4, size + 5, 0, io.EOF},
		{"empty read interior", 0, 3, 0, nil},
		{"empty read exactly at EOF", 0, size, 0, nil},
		{"empty read past EOF", 0, size + 5, 0, nil},
	}
	for _, tc := range cases {
		for _, impl := range []struct {
			name string
			f    File
		}{{"memFile", mf}, {"osFile", of}} {
			buf := make([]byte, tc.bufLen)
			n, err := impl.f.ReadAt(buf, tc.off)
			if n != tc.wantN || err != tc.wantErr {
				t.Errorf("%s: %s.ReadAt(len=%d, off=%d) = (%d, %v), want (%d, %v)",
					tc.name, impl.name, tc.bufLen, tc.off, n, err, tc.wantN, tc.wantErr)
			}
			if n > 0 && !bytes.Equal(buf[:n], content[tc.off:tc.off+int64(n)]) {
				t.Errorf("%s: %s read other bytes", tc.name, impl.name)
			}
		}
	}
}

func TestMemFSOpenMissing(t *testing.T) {
	fs := NewMem()
	if _, err := fs.Open("nope"); err == nil {
		t.Fatal("expected error opening missing file")
	}
	if err := fs.Remove("nope"); err == nil {
		t.Fatal("expected error removing missing file")
	}
	if fs.Exists("nope") {
		t.Fatal("Exists(nope) = true")
	}
}

func TestMemFSRename(t *testing.T) {
	fs := NewMem()
	f, _ := fs.Create("a")
	f.Write([]byte("x"))
	f.Close()
	if err := fs.Rename("a", "b"); err != nil {
		t.Fatal(err)
	}
	if fs.Exists("a") || !fs.Exists("b") {
		t.Fatal("rename did not move the file")
	}
	if err := fs.Rename("a", "c"); err == nil {
		t.Fatal("expected error renaming missing file")
	}
}

func TestMemFSList(t *testing.T) {
	fs := NewMem()
	for _, name := range []string{"db/1.sst", "db/2.sst", "db/sub/3.sst", "other/x"} {
		f, _ := fs.Create(name)
		f.Close()
	}
	names, err := fs.List("db")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"1.sst", "2.sst"}
	if len(names) != len(want) {
		t.Fatalf("List(db) = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("List(db) = %v, want %v", names, want)
		}
	}
}

func TestMemFSCrashDropsUnsynced(t *testing.T) {
	fs := NewMem()
	f, _ := fs.Create("wal")
	f.Write([]byte("durable"))
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	f.Write([]byte("-volatile"))
	fs.Crash()

	// Writes must fail while crashed.
	if _, err := f.Write([]byte("x")); err == nil {
		t.Fatal("write succeeded on crashed fs")
	}
	fs.Restart()

	r, err := fs.Open("wal")
	if err != nil {
		t.Fatal(err)
	}
	sz, _ := r.Size()
	if sz != int64(len("durable")) {
		t.Fatalf("post-crash size = %d, want %d", sz, len("durable"))
	}
	buf := make([]byte, sz)
	r.ReadAt(buf, 0)
	if string(buf) != "durable" {
		t.Fatalf("post-crash contents = %q", buf)
	}
}

func TestFaultFSFailNextSync(t *testing.T) {
	mem := NewMem()
	fs := NewFault(mem)
	f, _ := fs.Create("wal")
	f.Write([]byte("abc"))
	fs.FailNextSync()
	if err := f.Sync(); err == nil {
		t.Fatal("expected injected sync failure")
	}
	if got := fs.InjectedFaults(); got != 1 {
		t.Fatalf("InjectedFaults = %d, want 1", got)
	}
	// Failed sync means the data is still volatile.
	mem.Crash()
	mem.Restart()
	r, _ := fs.Open("wal")
	if sz, _ := r.Size(); sz != 0 {
		t.Fatalf("data survived a failed sync: size=%d", sz)
	}
	// One-shot: the next sync goes through.
	if err := f.Sync(); err != nil {
		t.Fatalf("second sync should succeed: %v", err)
	}
}

func TestMemFSRenameOnCrashedFS(t *testing.T) {
	// Regression: renames must not succeed on a crashed filesystem —
	// a "post-crash" manifest install slipping through would break the
	// crash model.
	fs := NewMem()
	f, _ := fs.Create("MANIFEST.new")
	f.Write([]byte("edit"))
	f.Sync()
	f.Close()
	fs.Crash()
	if err := fs.Rename("MANIFEST.new", "MANIFEST"); err == nil {
		t.Fatal("Rename must fail on a crashed fs")
	}
	if fs.Exists("MANIFEST") {
		t.Fatal("rename target appeared despite the crash")
	}
	fs.Restart()
	if err := fs.Rename("MANIFEST.new", "MANIFEST"); err != nil {
		t.Fatal(err)
	}
}

func TestMemFSWriteReadQuick(t *testing.T) {
	// Property: any sequence of appended chunks reads back as their
	// concatenation at every offset.
	fn := func(chunks [][]byte) bool {
		fs := NewMem()
		f, _ := fs.Create("f")
		var want []byte
		for _, c := range chunks {
			f.Write(c)
			want = append(want, c...)
		}
		got := make([]byte, len(want))
		if len(want) > 0 {
			if _, err := f.ReadAt(got, 0); err != nil && err != io.EOF {
				return false
			}
		}
		return bytes.Equal(got, want)
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestOSFSBasic(t *testing.T) {
	dir := t.TempDir()
	fs := NewOS()
	f, err := fs.Create(dir + "/sub/a")
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte("data"))
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if !fs.Exists(dir + "/sub/a") {
		t.Fatal("file should exist")
	}
	names, err := fs.List(dir + "/sub")
	if err != nil || len(names) != 1 || names[0] != "a" {
		t.Fatalf("List = %v, %v", names, err)
	}
	r, err := fs.Open(dir + "/sub/a")
	if err != nil {
		t.Fatal(err)
	}
	if sz, _ := r.Size(); sz != 4 {
		t.Fatalf("size=%d", sz)
	}
	r.Close()
	if err := fs.Rename(dir+"/sub/a", dir+"/sub/b"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Remove(dir + "/sub/b"); err != nil {
		t.Fatal(err)
	}
}

func TestMemFSWriteAt(t *testing.T) {
	fs := NewMem()
	f, _ := fs.Create("slab")
	// WriteAt past EOF zero-fills the gap.
	if _, err := f.WriteAt([]byte("xyz"), 10); err != nil {
		t.Fatal(err)
	}
	if sz, _ := f.Size(); sz != 13 {
		t.Fatalf("size = %d, want 13", sz)
	}
	buf := make([]byte, 13)
	f.ReadAt(buf, 0)
	for i := 0; i < 10; i++ {
		if buf[i] != 0 {
			t.Fatalf("gap not zero-filled at %d", i)
		}
	}
	if string(buf[10:]) != "xyz" {
		t.Fatalf("tail = %q", buf[10:])
	}
	// In-place overwrite.
	if _, err := f.WriteAt([]byte("AB"), 10); err != nil {
		t.Fatal(err)
	}
	f.ReadAt(buf, 0)
	if string(buf[10:]) != "ABz" {
		t.Fatalf("overwrite = %q", buf[10:])
	}
}

func TestWriteAtInvalidatesDurability(t *testing.T) {
	// Overwriting already-synced bytes re-exposes them to crash loss
	// until the next sync — the conservative in-place-update contract.
	fs := NewMem()
	f, _ := fs.Create("slab")
	f.Write([]byte("stable"))
	f.Sync()
	f.WriteAt([]byte("X"), 0)
	fs.Crash()
	fs.Restart()
	r, _ := fs.Open("slab")
	sz, _ := r.Size()
	if sz != 0 {
		buf := make([]byte, sz)
		r.ReadAt(buf, 0)
		if string(buf[:1]) == "X" {
			t.Fatal("unsynced in-place write survived crash")
		}
	}
}

func TestWriteAtOnCrashedFS(t *testing.T) {
	fs := NewMem()
	f, _ := fs.Create("slab")
	fs.Crash()
	if _, err := f.WriteAt([]byte("x"), 0); err == nil {
		t.Fatal("WriteAt must fail on crashed fs")
	}
	fs.Restart()
	if _, err := f.WriteAt([]byte("x"), 0); err != nil {
		t.Fatal(err)
	}
}

// TestCrashedFSRejectsSyncAndRemove: the goroutines of a "crashed" process
// keep running in a test, so between Crash and Restart nothing may change
// what recovery will read. A Sync that reported success on bytes Crash had
// just dropped would let an engine believe a manifest edit durable and
// delete files the surviving manifest still names — and the delete must
// not go through either.
func TestCrashedFSRejectsSyncAndRemove(t *testing.T) {
	fs := NewMem()
	f, err := fs.Create("db/MANIFEST")
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte("edit-1"))
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	f.Write([]byte("edit-2")) // in the page cache when the power fails
	fs.Crash()
	if err := f.Sync(); err == nil {
		t.Fatal("Sync succeeded on a crashed filesystem")
	}
	if err := fs.Remove("db/MANIFEST"); err == nil {
		t.Fatal("Remove succeeded on a crashed filesystem")
	}
	if err := RemoveTree(fs, "db"); err == nil {
		t.Fatal("RemoveTree succeeded on a crashed filesystem")
	}
	fs.Restart()
	if got, err := ReadFile(fs, "db/MANIFEST"); err != nil || string(got) != "edit-1" {
		t.Fatalf("after restart = %q, %v; want the synced prefix", got, err)
	}
}
