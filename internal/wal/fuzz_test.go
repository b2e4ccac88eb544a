package wal

import (
	"testing"

	"p2kvs/internal/vfs"
)

// FuzzReadAll: arbitrary log-file contents must never panic the replayer
// — torn tails end the replay silently (crash-truncation semantics),
// garbage is an error, valid prefixes are returned.
func FuzzReadAll(f *testing.F) {
	// Seed: a valid two-record log.
	fs := vfs.NewMem()
	file, _ := fs.Create("wal")
	w := NewWriter(file, Options{})
	w.Append(1, []byte("first"))
	w.Append(2, []byte("second"))
	w.Close()
	rf, _ := fs.Open("wal")
	sz, _ := rf.Size()
	valid := make([]byte, sz)
	rf.ReadAt(valid, 0)
	f.Add(valid)
	f.Add([]byte{})
	f.Add(valid[:len(valid)-3])
	f.Add(append(append([]byte(nil), valid...), 0xde, 0xad))

	f.Fuzz(func(t *testing.T, data []byte) {
		fz := vfs.NewMem()
		vfs.WriteFile(fz, "f", data)
		recs, err := ReadAll(fz, "f")
		if err != nil {
			return
		}
		for _, r := range recs {
			_ = r.GSN
			_ = r.Payload
		}
	})
}
