package sstable

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"p2kvs/internal/ikey"
	"p2kvs/internal/raceflag"
	"p2kvs/internal/vfs"
)

// fixedTableEntries is the size of writeFixedTable's table: the benchmark's
// record shape (16-byte key, 128-byte value), every seventh user key present
// in two versions so the filter sees duplicates.
const fixedTableEntries = 20_000

// writeFixedTable streams the same table into f every time it is called,
// cutting its data blocks at blockSize.
func writeFixedTable(tb testing.TB, f vfs.File, blockSize int) Meta {
	tb.Helper()
	w := NewWriter(f, 9, blockSize)
	ukey, val := make([]byte, 16), make([]byte, 128)
	var ik []byte
	for n, id := 0, uint64(0); n < fixedTableEntries; id++ {
		binary.BigEndian.PutUint64(ukey[8:], id)
		for i := range val {
			val[i] = byte(id) + byte(i)
		}
		versions := 1
		if id%7 == 0 {
			versions = 2
		}
		for v := 0; v < versions && n < fixedTableEntries; v, n = v+1, n+1 {
			ik = ikey.Encode(ik[:0], ukey, 2*id+uint64(versions-v), ikey.KindSet) // newer first
			if err := w.Add(ik, val); err != nil {
				tb.Fatal(err)
			}
		}
	}
	meta, err := w.Finish()
	if err != nil {
		tb.Fatal(err)
	}
	return meta
}

// fixedTableDigest writes writeFixedTable's table at blockSize and returns its
// sha256 and length.
func fixedTableDigest(t *testing.T, blockSize int) (string, int) {
	t.Helper()
	fs := vfs.NewMem()
	f, _ := fs.Create("fixed.sst")
	meta := writeFixedTable(t, f, blockSize)
	f.Close()
	data, err := vfs.ReadFile(fs, "fixed.sst")
	if err != nil {
		t.Fatal(err)
	}
	if meta.Entries != fixedTableEntries {
		t.Fatalf("%d entries, want %d", meta.Entries, fixedTableEntries)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), len(data)
}

// TestTableBytesUnchanged: the writer hashes a user key into a []uint32 when
// the entry is added instead of keeping a copy of it for Finish, and the
// block builder no longer stages its restart array. Neither may move a byte:
// the digest below is of the table fa54e11 (the parent, which kept the keys)
// wrote from this input, at the 4 KiB cut every table had then. Never
// regenerate it from a later commit.
func TestTableBytesUnchanged(t *testing.T) {
	const parentDigest = "09d8b7e493f245c1e4f98d96fcf0d73c60f88fb21c9dd961ce5bca22f309dd46"
	if got, n := fixedTableDigest(t, 4<<10); got != parentDigest {
		t.Fatalf("%d bytes, sha256 %s; the parent wrote %s", n, got, parentDigest)
	}
}

// TestBlockSizeTableBytes pins the layout of a table cut at BlockSize: the
// digest is of the table written when BlockSize became 1 KiB. A change to
// BlockSize, or to how a block is cut, moves it; a change that means to
// move no byte must leave it.
func TestBlockSizeTableBytes(t *testing.T) {
	const digest = "bcd0443692042f0f70f07d7517fb80a2b02baec7070b7fb073c4791a759b80cf"
	if got, n := fixedTableDigest(t, BlockSize); got != digest {
		t.Fatalf("%d bytes, sha256 %s; the 1 KiB layout is %s", n, got, digest)
	}
}

// TestWriterAddAllocs pins what a table costs per entry on the flush and
// compaction path: the per-table buffers (filter hashes, index, the file's
// growth) amortised over its entries, and nothing per entry or per block.
func TestWriterAddAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation pins are not meaningful under the race detector")
	}
	fs := vfs.NewMem()
	got := testing.AllocsPerRun(3, func() {
		f, _ := fs.Create("pin.sst")
		writeFixedTable(t, f, BlockSize)
		f.Close()
	}) / fixedTableEntries
	t.Logf("%.4f allocs/entry", got)
	if got > 0.02 {
		t.Errorf("Writer.Add: %.4f allocs/entry over a %d-entry table, want <= 0.02", got, fixedTableEntries)
	}
}
