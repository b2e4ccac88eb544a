package kv

import (
	"slices"
	"testing"

	"p2kvs/internal/vfs"
)

// TestCheckpointStatsAddFile materializes one image of the three sources
// three times: into the source's own filesystem (the whole file is hard
// linked), again there (it is reused), and into a second filesystem, which
// cannot link to the first (it is copied). The prefix and the written file
// are copied every time, under names that carry the checkpoint sequence.
func TestCheckpointStatsAddFile(t *testing.T) {
	src := vfs.NewMem()
	if err := vfs.WriteFile(src, "db/000001.sst", []byte("data")); err != nil {
		t.Fatal(err)
	}
	if err := vfs.WriteFile(src, "db/000002.log", []byte("journal, and a tail past the capture")); err != nil {
		t.Fatal(err)
	}
	img := CheckpointImage{FS: src, Files: []CheckpointFile{
		{Name: "000001.sst", Path: "db/000001.sst", Whole: true},
		{Name: "000002.log", Path: "db/000002.log", Size: 7},
		{Name: "META", Write: func(fs vfs.FS, path string) error { return vfs.WriteFile(fs, path, []byte("gen=1")) }},
	}}
	for _, tc := range []struct {
		name  string
		dst   vfs.FS
		seq   uint64
		names []string
		want  CheckpointStats
	}{
		{"linked", src, 1, []string{"000001.sst", "000002.log-ckpt000001", "META-ckpt000001"},
			CheckpointStats{Checkpoints: 1, FilesLinked: 1, FilesCopied: 2, BytesCopied: 7 + 5}},
		{"reused", src, 2, []string{"000001.sst", "000002.log-ckpt000002", "META-ckpt000002"},
			CheckpointStats{Checkpoints: 1, FilesReused: 1, FilesCopied: 2, BytesCopied: 7 + 5}},
		{"copied", vfs.NewMem(), 1, []string{"000001.sst", "000002.log-ckpt000001", "META-ckpt000001"},
			CheckpointStats{Checkpoints: 1, FilesCopied: 3, BytesCopied: 4 + 7 + 5}},
	} {
		var st CheckpointStats
		names, err := img.Materialize(tc.dst, "bak", tc.seq, &st)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !slices.Equal(names, tc.names) {
			t.Fatalf("%s: names %q, want %q", tc.name, names, tc.names)
		}
		if st != tc.want {
			t.Fatalf("%s: stats = %+v, want %+v", tc.name, st, tc.want)
		}
		for i, want := range []string{"data", "journal", "gen=1"} {
			if got, err := vfs.ReadFile(tc.dst, "bak/"+names[i]); err != nil || string(got) != want {
				t.Fatalf("%s: bak/%s = %q, %v; want %q", tc.name, names[i], got, err, want)
			}
		}
	}
}
