package sstable

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sort"
	"testing"

	"p2kvs/internal/block"
	"p2kvs/internal/ikey"
	"p2kvs/internal/kv"
	"p2kvs/internal/raceflag"
	"p2kvs/internal/vfs"
)

// writeKeys writes the internal keys iks, ascending, each with a value of
// valueLen bytes, and returns the table's bytes. A value of BlockSize
// bytes puts every key in a block of its own, so every key is a separator.
func writeKeys(tb testing.TB, iks [][]byte, valueLen int) []byte {
	tb.Helper()
	fs := vfs.NewMem()
	f, err := fs.Create("t.sst")
	if err != nil {
		tb.Fatal(err)
	}
	w := NewWriter(f, 1, BlockSize)
	value := make([]byte, valueLen)
	for _, ik := range iks {
		if err := w.Add(ik, value); err != nil {
			tb.Fatal(err)
		}
	}
	if _, err := w.Finish(); err != nil {
		tb.Fatal(err)
	}
	f.Close()
	data, err := vfs.ReadFile(fs, "t.sst")
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// openBytes opens a table image under the name "t.sst".
func openBytes(tb testing.TB, data []byte) (*Reader, error) {
	tb.Helper()
	fs := vfs.NewMem()
	if err := vfs.WriteFile(fs, "t.sst", data); err != nil {
		tb.Fatal(err)
	}
	f, err := fs.Open("t.sst")
	if err != nil {
		tb.Fatal(err)
	}
	r, err := OpenNamed(f, nil, 0, "t.sst")
	if err != nil {
		f.Close()
	}
	return r, err
}

// versions returns one internal key per (user key, seq), sorted by
// ikey.Compare with duplicates dropped.
func versions(ukeys [][]byte, seqs ...uint64) [][]byte {
	var iks [][]byte
	for _, uk := range ukeys {
		for _, s := range seqs {
			iks = append(iks, ikey.Make(uk, s, ikey.KindSet))
		}
	}
	slices.SortFunc(iks, ikey.Compare)
	return slices.CompactFunc(iks, func(a, b []byte) bool { return ikey.Compare(a, b) == 0 })
}

// seekTargets derives probes from a key set: every user key at four
// snapshots, and neighbours of each — a byte shorter, a 0x00 and a 0xff
// longer, the last byte bumped — plus the empty key and 0xff runs.
func seekTargets(iks [][]byte) [][]byte {
	ukeys := [][]byte{{}, {0xff}, bytes.Repeat([]byte{0xff}, 80)}
	for _, ik := range iks {
		uk := ikey.UserKey(ik)
		ukeys = append(ukeys, uk, append(slices.Clone(uk), 0), append(slices.Clone(uk), 0xff))
		if n := len(uk); n > 0 {
			ukeys = append(ukeys, uk[:n-1])
			if uk[n-1] < 0xff {
				ukeys = append(ukeys, append(slices.Clone(uk[:n-1]), uk[n-1]+1))
			}
		}
	}
	var targets [][]byte
	for _, uk := range ukeys {
		for _, s := range []uint64{ikey.MaxSeq, 50, 3, 0} {
			targets = append(targets, ikey.Make(uk, s, ikey.KindSet))
		}
	}
	return targets
}

// checkAgainstReference requires the decoded index to place every target
// where sort.Search over the separators under ikey.Compare does, and Seek to
// land on the first written key >= target.
func checkAgainstReference(t *testing.T, r *Reader, iks, targets [][]byte) {
	t.Helper()
	n := len(r.handles)
	it := r.NewIterator()
	defer it.Close()
	for _, target := range targets {
		want := sort.Search(n, func(i int) bool { return ikey.Compare(r.key(i), target) >= 0 })
		if got := r.search(target); got != want {
			t.Fatalf("search(%q) = entry %d, want %d (prefix %q, %d separators)", target, got, want, r.prefix, n)
		}
		next := sort.Search(len(iks), func(i int) bool { return ikey.Compare(iks[i], target) >= 0 })
		it.Seek(target)
		switch {
		case it.Error() != nil:
			t.Fatalf("Seek(%q): %v", target, it.Error())
		case next == len(iks) && it.Valid():
			t.Fatalf("Seek(%q) landed on %q past the last key", target, it.Key())
		case next < len(iks) && (!it.Valid() || !bytes.Equal(it.Key(), iks[next])):
			t.Fatalf("Seek(%q) landed on %q (valid %v), want %q", target, it.Key(), it.Valid(), iks[next])
		}
	}
}

func bs(ss ...string) [][]byte {
	out := make([][]byte, len(ss))
	for i, s := range ss {
		out[i] = []byte(s)
	}
	return out
}

// TestIndexSeekMatchesReference: the abbreviated search picks the block a
// full-key search picks, across the edges of the abbreviation — short and
// 0x00-padded suffixes, a separator equal to the shared prefix, the empty
// key, keys past 64 bytes, one user key's versions spanning blocks, a
// one-block table — and for targets below, above and outside the prefix.
func TestIndexSeekMatchesReference(t *testing.T) {
	long := string(bytes.Repeat([]byte("L"), 70))
	many := make([]uint64, 40)
	for i := range many {
		many[i] = uint64(3 * (i + 1))
	}
	cases := []struct {
		name     string
		iks      [][]byte
		valueLen int
	}{
		{"short suffixes", versions(bs("user", "user\x00", "usera", "usera\x00", "userab", "userabcdefg", "userabcdefgh", "userabcdefghi"), 7), BlockSize},
		{"zero bytes", versions(bs("\x00", "\x00\x00", "\x00\x01", "k\x00\x00\x00\x00\x00\x00\x00\x00", "k\x00\x00\x00\x00\x00\x00\x00\x00\x01", "k\x01"), 5), BlockSize},
		{"first separator is the prefix", versions(bs("pre", "pre\x00", "prea", "prefix", "prez"), 9), BlockSize},
		{"empty user key", versions(bs("", "a", "b", "\xff"), 4), BlockSize},
		{"keys past 64 bytes", versions(bs(long, long+"\x00", long+"a", long+"abcdefghij", long+"abcdefghik", long+"b"), 2), BlockSize},
		{"versions spanning blocks", versions(bs("j", "k", "l"), many...), BlockSize},
		{"one-block table", versions(bs("one", "three", "two"), 1, 4), 16},
		{"many keys a block", versions(func() [][]byte {
			var uks [][]byte
			for i := 0; i < 3000; i++ {
				uks = append(uks, []byte(fmt.Sprintf("user%08d", i*7)))
			}
			return uks
		}(), 1, 60), 100},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r, err := openBytes(t, writeKeys(t, tc.iks, tc.valueLen))
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			if tc.name == "one-block table" && len(r.handles) != 1 {
				t.Fatalf("%d blocks, want 1", len(r.handles))
			}
			if tc.name == "first separator is the prefix" && !bytes.Equal(r.prefix, ikey.UserKey(r.key(0))) {
				t.Fatalf("prefix %q, first separator %q", r.prefix, r.key(0))
			}
			checkAgainstReference(t, r, tc.iks, seekTargets(tc.iks))
		})
	}
}

// fuzzKeys splits raw into up to 64 user keys, each a length byte (mod 80)
// and that many bytes, versioned at one to three snapshots.
func fuzzKeys(raw []byte) [][]byte {
	var ukeys [][]byte
	for len(raw) > 0 && len(ukeys) < 64 {
		n := min(int(raw[0])%80, len(raw)-1)
		ukeys = append(ukeys, raw[1:1+n])
		raw = raw[1+n:]
	}
	return versions(ukeys, 1, 1+uint64(len(ukeys)%3), 9)
}

// withIndex replaces the index block of table image data with content,
// sealed, and re-checksums the footer: a table whose index is arbitrary but
// intact.
func withIndex(data, content []byte) []byte {
	footer := slices.Clone(data[len(data)-footerLen:])
	indexOff := binary.LittleEndian.Uint64(footer[16:])
	sealed := block.Seal(slices.Clone(content))
	binary.LittleEndian.PutUint64(footer[24:], uint64(len(sealed)))
	binary.LittleEndian.PutUint32(footer[40:], block.Checksum(footer[:40]))
	return append(append(slices.Clone(data[:indexOff]), sealed...), footer...)
}

// indexContent returns the unsealed index block of table image data.
func indexContent(tb testing.TB, data []byte) []byte {
	footer := data[len(data)-footerLen:]
	off, n := binary.LittleEndian.Uint64(footer[16:]), binary.LittleEndian.Uint64(footer[24:])
	content, err := block.Unseal(data[off : off+n])
	if err != nil {
		tb.Fatal(err)
	}
	return slices.Clone(content)
}

// FuzzIndexSeek: for any key set the abbreviated index search agrees with a
// full-key search, and a table whose index block is arbitrary but validly
// sealed either fails Open with a typed error or yields a reader that never
// panics.
func FuzzIndexSeek(f *testing.F) {
	seedKeys := []byte("\x04user\x05user\x00\x05usera\x00\x03pre\x0aprefixlong")
	seedTable := writeKeys(f, fuzzKeys(seedKeys), 1000)
	f.Add(seedKeys, uint16(1000), []byte("usera"), []byte(nil))
	f.Add(seedKeys, uint16(0), []byte{}, indexContent(f, seedTable))
	f.Add([]byte("\x10aaaaaaaaaaaaaaaa\x11aaaaaaaaaaaaaaaab"), uint16(BlockSize), []byte("aaaaaaaaaaaaaaaa\x00"), []byte{0, 0, 0, 0, 1, 0, 0, 0})
	f.Fuzz(func(t *testing.T, raw []byte, valueLen uint16, probe, index []byte) {
		iks := fuzzKeys(raw)
		if len(iks) == 0 {
			t.Skip("a table holds at least one key")
		}
		data := writeKeys(t, iks, int(valueLen)%(BlockSize+1))
		r, err := openBytes(t, data)
		if err != nil {
			t.Fatal(err)
		}
		targets := append(seekTargets(iks), ikey.Make(probe, 5, ikey.KindSet))
		checkAgainstReference(t, r, iks, targets)
		r.Close()

		if index == nil {
			return
		}
		r, err = openBytes(t, withIndex(data, index))
		if err != nil {
			if !errors.Is(err, kv.ErrCorruption) && !errors.Is(err, ErrUnsupported) {
				t.Fatalf("Open = %v, want a corruption or ErrUnsupported", err)
			}
			return
		}
		defer r.Close()
		it := r.NewIterator()
		for it.SeekToFirst(); it.Valid(); it.Next() {
		}
		for _, target := range targets {
			it.Seek(target)
			lookup(r, ikey.UserKey(target), ikey.MaxSeq)
		}
		it.Close()
		r.Verify()
	})
}

// TestOpenAllocs pins what opening a table costs the heap: the Reader, the
// footer, the filter block as read, and the index's three arrays
// (abbreviations, keys, handles) — sized by counting first, so a table of
// 1,000 blocks opens with the allocations of one of 10. The index block is
// read into a recycled buffer.
func TestOpenAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation pins are not meaningful under the race detector")
	}
	var counts []float64
	for _, blocks := range []int{10, 1000} {
		rf := allocTable(t, blocks*8) // 8 records of 128 bytes fill a 1 KiB block
		r, err := OpenNamed(rf, nil, 0, "")
		if err != nil {
			t.Fatal(err)
		}
		if got := len(r.handles); 10*got < 9*blocks || 10*got > 11*blocks {
			t.Fatalf("table has %d blocks, want about %d", got, blocks)
		}
		counts = append(counts, testing.AllocsPerRun(20, func() {
			if _, err := OpenNamed(rf, nil, 0, ""); err != nil {
				t.Fatal(err)
			}
		}))
	}
	if counts[0] != counts[1] || counts[1] > 6 {
		t.Fatalf("Open: %.0f allocs for 10 blocks, %.0f for 1,000; want equal and <= 6", counts[0], counts[1])
	}
}

// TestVerifyFindsRotAfterOpen: rot that lands in the index, the filter or
// the footer after a table is open is invisible to its lookups (those
// regions are decoded once, at Open), so Verify must re-read them from the
// device — and it reads the whole file, byte for byte.
func TestVerifyFindsRotAfterOpen(t *testing.T) {
	fs := vfs.NewFault(vfs.NewMem())
	f, err := fs.Create("t.sst")
	if err != nil {
		t.Fatal(err)
	}
	w := NewWriter(f, 1, BlockSize)
	pairs := sortedPairs(2000)
	for i, p := range pairs {
		if err := w.Add(ikey.Make([]byte(p[0]), uint64(i+1), ikey.KindSet), []byte(p[1])); err != nil {
			t.Fatal(err)
		}
	}
	meta, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	pristine, err := vfs.ReadFile(fs, "t.sst")
	if err != nil {
		t.Fatal(err)
	}
	footer := pristine[len(pristine)-footerLen:]
	regions := []struct {
		name string
		off  int64
	}{
		{"filter", int64(binary.LittleEndian.Uint64(footer[0:])) + 3},
		{"index", int64(binary.LittleEndian.Uint64(footer[16:])) + 3},
		{"footer", meta.Size - footerLen + 17},
	}
	for _, rg := range regions {
		t.Run(rg.name, func(t *testing.T) {
			if err := vfs.WriteFile(fs, "t.sst", pristine); err != nil {
				t.Fatal(err)
			}
			rf, err := fs.Open("t.sst")
			if err != nil {
				t.Fatal(err)
			}
			r, err := OpenNamed(rf, nil, 0, "t.sst")
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			if n, err := r.Verify(); err != nil || n != meta.Size {
				t.Fatalf("Verify of the intact table = %d bytes, %v; want %d, nil", n, err, meta.Size)
			}
			if err := fs.CorruptAt("t.sst", rg.off); err != nil {
				t.Fatal(err)
			}
			if _, err := r.Verify(); !errors.Is(err, kv.ErrCorruption) {
				t.Fatalf("Verify after a flip in the %s at %d = %v, want ErrCorruption", rg.name, rg.off, err)
			}
			if v, _, found, _, err := lookup(r, []byte(pairs[7][0]), ikey.MaxSeq); err != nil || !found || string(v) != pairs[7][1] {
				t.Fatalf("Get after the flip = %q, %v, %v: the open reader should still serve", v, found, err)
			}
		})
	}
}
