package kv

import (
	"testing"

	"p2kvs/internal/vfs"
)

// TestCheckpointStatsAddFile walks the three ways a file enters a backup
// set: hard link on one filesystem, reuse when the name is already there,
// and a full copy when the destination refuses the link.
func TestCheckpointStatsAddFile(t *testing.T) {
	src := vfs.NewMem()
	if err := vfs.WriteFile(src, "db/000001.sst", []byte("data")); err != nil {
		t.Fatal(err)
	}
	var st CheckpointStats
	if err := st.AddFile(src, "db/000001.sst", src, "bak/000001.sst"); err != nil {
		t.Fatal(err)
	}
	if err := st.AddFile(src, "db/000001.sst", src, "bak/000001.sst"); err != nil {
		t.Fatal(err)
	}
	// A second filesystem cannot link to the first: the bytes are copied.
	dst := vfs.NewMem()
	if err := st.AddFile(src, "db/000001.sst", dst, "bak/000001.sst"); err != nil {
		t.Fatal(err)
	}
	want := CheckpointStats{FilesLinked: 1, FilesReused: 1, FilesCopied: 1, BytesCopied: 4}
	if st != want {
		t.Fatalf("stats = %+v, want %+v", st, want)
	}
	for _, fs := range []vfs.FS{src, dst} {
		if got, err := vfs.ReadFile(fs, "bak/000001.sst"); err != nil || string(got) != "data" {
			t.Fatalf("backup copy = %q, %v", got, err)
		}
	}
}
