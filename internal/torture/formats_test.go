package torture

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"p2kvs/internal/block"
	"p2kvs/internal/btreekv"
	"p2kvs/internal/checkpoint"
	"p2kvs/internal/kv"
	"p2kvs/internal/kvell"
	"p2kvs/internal/sstable"
	"p2kvs/internal/vfs"
	"p2kvs/internal/wal"
)

// One format per file kind: every reader parses exactly what today's
// writer emits. These two tests hold both halves of that — bytes the
// parent commit (a1e88e3) wrote still open and read back, and every
// retired layout is refused with a typed error instead of being guessed
// at.

// The goldens were written by a throwaway main run at a1e88e3 (a WAL of
// three records, a 300-entry table, a kvell store after 20 puts, a btreekv
// store after 60 puts at a 1 KiB checkpoint budget). They are the witness:
// never regenerate them from a later commit.
const formatGoldens = "testdata/formats-a1e88e3"

// loadGolden copies a golden file or directory into a fresh MemFS (engines
// write to what they open; testdata must not change) under the same
// relative name.
func loadGolden(t *testing.T, rel string) *vfs.MemFS {
	t.Helper()
	mem := vfs.NewMem()
	root := filepath.Join(formatGoldens, rel)
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		name, _ := filepath.Rel(formatGoldens, path)
		return vfs.WriteFile(mem, filepath.ToSlash(name), data)
	})
	if err != nil {
		t.Fatal(err)
	}
	return mem
}

func openFile(t *testing.T, fs vfs.FS, name string) vfs.File {
	t.Helper()
	f, err := fs.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestParentFormatsReopen(t *testing.T) {
	t.Run("wal", func(t *testing.T) {
		mem := loadGolden(t, "wal.log")
		recs, err := wal.ReadAll(mem, "wal.log")
		if err != nil || len(recs) != 3 {
			t.Fatalf("ReadAll = %d records, %v", len(recs), err)
		}
		f, _ := mem.Create("again.log")
		w := wal.NewWriter(f, wal.Options{})
		for i, r := range recs {
			if want := fmt.Sprintf("payload-%04d", i); r.GSN != uint64(i+1) || string(r.Payload) != want {
				t.Fatalf("record %d = gsn %d %q", i, r.GSN, r.Payload)
			}
			if err := w.Append(r.GSN, r.Payload); err != nil {
				t.Fatal(err)
			}
		}
		w.Close()
		sameBytes(t, mem, "wal.log", "again.log")
	})
	t.Run("sstable", func(t *testing.T) {
		mem := loadGolden(t, "table.sst")
		r, err := sstable.OpenNamed(openFile(t, mem, "table.sst"), nil, 0, "table.sst")
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		if _, err := r.Verify(); err != nil || r.Entries() != 300 {
			t.Fatalf("Verify = %v, Entries = %d", err, r.Entries())
		}
		f, _ := mem.Create("again.sst")
		w := sstable.NewWriter(f, 1, 4<<10) // the cut the golden table was written at
		n, it := 0, r.NewIterator()
		for it.SeekToFirst(); it.Valid(); it.Next() {
			if want := fmt.Sprintf("value-%04d-padding-padding", n); string(it.Value()) != want {
				t.Fatalf("entry %d = %q", n, it.Value())
			}
			if err := w.Add(it.Key(), it.Value()); err != nil {
				t.Fatal(err)
			}
			n++
		}
		if _, err := w.Finish(); err != nil || it.Error() != nil || n != 300 {
			t.Fatalf("rewrote %d entries: %v, %v", n, it.Error(), err)
		}
		sameBytes(t, mem, "table.sst", "again.sst")
	})
	t.Run("kvell", func(t *testing.T) {
		mem := loadGolden(t, "kvell")
		s, err := kvell.Open("kvell", kvell.Options{FS: mem, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		for i := 0; i < 20; i++ {
			k, want := fmt.Sprintf("key-%04d", i), fmt.Sprintf("value-%04d", i)
			if v, err := s.Get([]byte(k)); err != nil || string(v) != want {
				t.Fatalf("Get(%s) = %q, %v", k, v, err)
			}
		}
	})
	t.Run("btreekv", func(t *testing.T) {
		mem := loadGolden(t, "btreekv")
		d, err := btreekv.Open("btreekv", btreekv.Options{FS: mem})
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		for i := 0; i < 60; i++ {
			k, want := fmt.Sprintf("key-%04d", i), fmt.Sprintf("value-%04d-padding-padding", i)
			if v, err := d.Get([]byte(k)); err != nil || string(v) != want {
				t.Fatalf("Get(%s) = %q, %v", k, v, err)
			}
		}
	})
}

func sameBytes(t *testing.T, fs vfs.FS, a, b string) {
	t.Helper()
	x, err := vfs.ReadFile(fs, a)
	if err != nil {
		t.Fatal(err)
	}
	y, err := vfs.ReadFile(fs, b)
	if err != nil {
		t.Fatal(err)
	}
	if string(x) != string(y) {
		t.Fatalf("today's writer no longer emits the bytes of %s (%d bytes vs %d)", a, len(y), len(x))
	}
}

// TestRetiredFormatsRejected is the table of everything a reader used to
// accept and no writer in the tree can produce. Each row builds the input
// from a valid file, and must fail with a typed error without yielding a
// single record.
func TestRetiredFormatsRejected(t *testing.T) {
	golden := func(name string) []byte {
		data, err := os.ReadFile(filepath.Join(formatGoldens, name))
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	const oldTableMagic = 0x70324b5653535400 // 48-byte, unchecksummed footer

	cases := []struct {
		name string
		// open reports how many records the input yielded and the error.
		open func(t *testing.T, fs *vfs.MemFS) (int, error)
		want error
	}{
		{"wal without the preamble (the headerless v1 records)", func(t *testing.T, fs *vfs.MemFS) (int, error) {
			var raw []byte
			for i := 0; i < 2; i++ {
				payload := []byte(fmt.Sprintf("legacy-%04d", i))
				raw = binary.LittleEndian.AppendUint32(raw, crc32.ChecksumIEEE(payload))
				raw = binary.LittleEndian.AppendUint32(raw, uint32(len(payload)))
				raw = binary.LittleEndian.AppendUint64(raw, uint64(i+1))
				raw = append(raw, payload...)
			}
			vfs.WriteFile(fs, "000001.log", raw)
			recs, err := wal.ReadAll(fs, "000001.log")
			return len(recs), err
		}, kv.ErrCorruption},
		{"wal with one flipped preamble bit", func(t *testing.T, fs *vfs.MemFS) (int, error) {
			raw := golden("wal.log")
			raw[3] ^= 0x04
			vfs.WriteFile(fs, "000001.log", raw)
			recs, err := wal.ReadAll(fs, "000001.log")
			return len(recs), err
		}, kv.ErrCorruption},
		{"sstable ending in the 48-byte footer", func(t *testing.T, fs *vfs.MemFS) (int, error) {
			raw := golden("table.sst")
			body, footer := raw[:len(raw)-56], raw[len(raw)-56:]
			legacy := binary.LittleEndian.AppendUint64(append(append([]byte(nil), body...), footer[:40]...), oldTableMagic)
			vfs.WriteFile(fs, "000001.sst", legacy)
			_, err := sstable.OpenNamed(openFile(t, fs, "000001.sst"), nil, 0, "000001.sst")
			return 0, err
		}, kv.ErrCorruption},
		{"sstable whose block handles carry a raw length (DEFLATE blocks)", func(t *testing.T, fs *vfs.MemFS) (int, error) {
			// Refused, never served: Open decodes every handle of the index,
			// so the table fails there and no lookup or scan ever reads it.
			vfs.WriteFile(fs, "000001.sst", withCompressedHandles(t, golden("table.sst")))
			r, err := sstable.OpenNamed(openFile(t, fs, "000001.sst"), nil, 0, "000001.sst")
			if err == nil {
				r.Close()
			}
			return 0, err
		}, sstable.ErrUnsupported},
		{"kvell directory with slab bytes and no FORMAT marker", func(t *testing.T, fs *vfs.MemFS) (int, error) {
			vfs.WriteFile(fs, "db/w00/slab-128.dat", golden("kvell/w00/slab-128.dat"))
			s, err := kvell.Open("db", kvell.Options{FS: fs, Workers: 1})
			if err == nil {
				s.Close()
			}
			return 0, err
		}, kv.ErrCorruption},
		{"CHECKPOINT manifest in the v1 text form", func(t *testing.T, fs *vfs.MemFS) (int, error) {
			// The line codec's last layout, self-checksum line included:
			// only the sealed JSON form is read now.
			body := "p2kvs-checkpoint v1\nseq 1\nworkers 1\nengine rocksdb\npartitioner hash\ngsn 7\n" +
				"taken_unix_ns 1700000000000000000\nbarrier_ns 1000\nworker 0 gsn 7\n" +
				"file 0 4096 deadbeef worker-0/000004.sst 000004.sst\n"
			body += fmt.Sprintf("crc %08x\n", crc32.Checksum([]byte(body), crc32.MakeTable(crc32.Castagnoli)))
			vfs.WriteFile(fs, "bak/"+checkpoint.ManifestName, []byte(body))
			_, err := checkpoint.Load(fs, "bak")
			return 0, err
		}, checkpoint.ErrCorrupt},
		{"btreekv META in the bare gen=N form", func(t *testing.T, fs *vfs.MemFS) (int, error) {
			vfs.WriteFile(fs, "db/META", []byte("gen=7\n"))
			d, err := btreekv.Open("db", btreekv.Options{FS: fs})
			if err == nil {
				d.Close()
			}
			return 0, err
		}, kv.ErrCorruption},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n, err := tc.open(t, vfs.NewMem())
			if !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want %v", err, tc.want)
			}
			if n != 0 {
				t.Fatalf("yielded %d records before failing", n)
			}
		})
	}
}

// withCompressedHandles rewrites a valid table's index so every block
// handle's third field, the raw length of a compressed block, is set.
func withCompressedHandles(t *testing.T, raw []byte) []byte {
	t.Helper()
	footer := append([]byte(nil), raw[len(raw)-56:]...)
	indexOff := binary.LittleEndian.Uint64(footer[16:])
	indexLen := binary.LittleEndian.Uint64(footer[24:])
	index, err := block.Unseal(raw[indexOff : indexOff+indexLen])
	if err != nil {
		t.Fatal(err)
	}
	var it block.Iter
	if err := it.Init(index); err != nil {
		t.Fatal(err)
	}
	var b block.Builder
	for it.SeekToFirst(); it.Valid(); it.Next() {
		h := it.Value()
		if h[len(h)-1] != 0 {
			t.Fatalf("handle %x does not end in the zero raw-length field", h)
		}
		b.Add(it.Key(), append(append([]byte(nil), h[:len(h)-1]...), 9))
	}
	sealed := block.Seal(b.Finish())
	binary.LittleEndian.PutUint64(footer[24:], uint64(len(sealed)))
	binary.LittleEndian.PutUint32(footer[40:], block.Checksum(footer[:40]))
	return append(append(append([]byte(nil), raw[:indexOff]...), sealed...), footer...)
}
