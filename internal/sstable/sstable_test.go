package sstable

import (
	"bytes"
	"fmt"
	"sort"
	"testing"
	"testing/quick"

	"p2kvs/internal/cache"
	"p2kvs/internal/ikey"
	"p2kvs/internal/raceflag"
	"p2kvs/internal/vfs"
)

// buildTable writes user keys (with seq = their index+1) into a table and
// reopens it.
func buildTable(t *testing.T, pairs [][2]string) (*Reader, Meta) {
	t.Helper()
	fs := vfs.NewMem()
	f, err := fs.Create("1.sst")
	if err != nil {
		t.Fatal(err)
	}
	w := NewWriter(f, 1)
	for i, p := range pairs {
		ik := ikey.Make([]byte(p[0]), uint64(i+1), ikey.KindSet)
		if err := w.Add(ik, []byte(p[1])); err != nil {
			t.Fatal(err)
		}
	}
	meta, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	rf, err := fs.Open("1.sst")
	if err != nil {
		t.Fatal(err)
	}
	r, err := Open(rf)
	if err != nil {
		t.Fatal(err)
	}
	return r, meta
}

func sortedPairs(n int) [][2]string {
	pairs := make([][2]string, n)
	for i := 0; i < n; i++ {
		pairs[i] = [2]string{fmt.Sprintf("key%06d", i), fmt.Sprintf("value-%d", i)}
	}
	return pairs
}

func TestWriteReadSmall(t *testing.T) {
	pairs := sortedPairs(10)
	r, meta := buildTable(t, pairs)
	defer r.Close()
	if meta.Entries != 10 || r.Entries() != 10 {
		t.Fatalf("entries = %d/%d", meta.Entries, r.Entries())
	}
	if string(ikey.UserKey(meta.Smallest)) != "key000000" {
		t.Fatalf("smallest = %q", meta.Smallest)
	}
	if string(ikey.UserKey(meta.Largest)) != "key000009" {
		t.Fatalf("largest = %q", meta.Largest)
	}
	for i, p := range pairs {
		v, _, found, deleted, err := r.Get([]byte(p[0]), ikey.MaxSeq)
		if err != nil || !found || deleted {
			t.Fatalf("Get(%q) = found=%v deleted=%v err=%v", p[0], found, deleted, err)
		}
		if string(v) != pairs[i][1] {
			t.Fatalf("Get(%q) = %q", p[0], v)
		}
	}
	if _, _, found, _, _ := r.Get([]byte("missing"), ikey.MaxSeq); found {
		t.Fatal("found a missing key")
	}
}

func TestMultiBlockTable(t *testing.T) {
	// Enough data to force many 4KB blocks.
	pairs := sortedPairs(5000)
	r, _ := buildTable(t, pairs)
	defer r.Close()

	// Full iteration in order.
	it := r.NewIterator()
	i := 0
	for it.SeekToFirst(); it.Valid(); it.Next() {
		uk := ikey.UserKey(it.Key())
		if string(uk) != pairs[i][0] {
			t.Fatalf("entry %d key %q, want %q", i, uk, pairs[i][0])
		}
		if string(it.Value()) != pairs[i][1] {
			t.Fatalf("entry %d value mismatch", i)
		}
		i++
	}
	if it.Error() != nil {
		t.Fatal(it.Error())
	}
	if i != len(pairs) {
		t.Fatalf("iterated %d, want %d", i, len(pairs))
	}

	// Point gets across block boundaries.
	for _, idx := range []int{0, 1, 999, 1000, 2500, 4998, 4999} {
		v, _, found, _, err := r.Get([]byte(pairs[idx][0]), ikey.MaxSeq)
		if err != nil || !found || string(v) != pairs[idx][1] {
			t.Fatalf("Get(%d) = %q %v %v", idx, v, found, err)
		}
	}

	// Seek lands mid-table.
	it2 := r.NewIterator()
	it2.Seek(ikey.SeekKey([]byte("key002500"), ikey.MaxSeq))
	if !it2.Valid() || string(ikey.UserKey(it2.Key())) != "key002500" {
		t.Fatalf("Seek landed on %q", it2.Key())
	}
}

func TestVersionsAndTombstones(t *testing.T) {
	fs := vfs.NewMem()
	f, _ := fs.Create("t.sst")
	w := NewWriter(f, 7)
	// key "a": set@5 then (older) set@3; key "b": delete@9 then set@2.
	w.Add(ikey.Make([]byte("a"), 5, ikey.KindSet), []byte("new"))
	w.Add(ikey.Make([]byte("a"), 3, ikey.KindSet), []byte("old"))
	w.Add(ikey.Make([]byte("b"), 9, ikey.KindDelete), nil)
	w.Add(ikey.Make([]byte("b"), 2, ikey.KindSet), []byte("gone"))
	if _, err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	rf, _ := fs.Open("t.sst")
	r, err := Open(rf)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	v, fseq, found, deleted, _ := r.Get([]byte("a"), ikey.MaxSeq)
	if fseq != 5 {
		t.Fatalf("foundSeq = %d, want 5", fseq)
	}
	if !found || deleted || string(v) != "new" {
		t.Fatalf("Get(a, max) = %q %v %v", v, found, deleted)
	}
	// Snapshot before the newer version sees the old one.
	v, _, found, deleted, _ = r.Get([]byte("a"), 4)
	if !found || deleted || string(v) != "old" {
		t.Fatalf("Get(a, 4) = %q %v %v", v, found, deleted)
	}
	// b is deleted at max seq…
	_, _, found, deleted, _ = r.Get([]byte("b"), ikey.MaxSeq)
	if !found || !deleted {
		t.Fatalf("Get(b, max) = found=%v deleted=%v", found, deleted)
	}
	// …but visible at an old snapshot.
	v, _, found, deleted, _ = r.Get([]byte("b"), 2)
	if !found || deleted || string(v) != "gone" {
		t.Fatalf("Get(b, 2) = %q %v %v", v, found, deleted)
	}
}

func TestOutOfOrderAddFails(t *testing.T) {
	fs := vfs.NewMem()
	f, _ := fs.Create("t.sst")
	w := NewWriter(f, 1)
	if err := w.Add(ikey.Make([]byte("b"), 1, ikey.KindSet), nil); err != nil {
		t.Fatal(err)
	}
	if err := w.Add(ikey.Make([]byte("a"), 2, ikey.KindSet), nil); err == nil {
		t.Fatal("out-of-order add must fail")
	}
}

func TestEmptyTableFails(t *testing.T) {
	fs := vfs.NewMem()
	f, _ := fs.Create("t.sst")
	w := NewWriter(f, 1)
	if _, err := w.Finish(); err == nil {
		t.Fatal("finishing an empty table must fail")
	}
}

func TestOpenCorrupt(t *testing.T) {
	fs := vfs.NewMem()
	f, _ := fs.Create("bad.sst")
	f.Write(bytes.Repeat([]byte{0xab}, 100))
	f.Close()
	rf, _ := fs.Open("bad.sst")
	if _, err := Open(rf); err == nil {
		t.Fatal("opening garbage must fail")
	}
	// Too-short file.
	f2, _ := fs.Create("short.sst")
	f2.Write([]byte("x"))
	rf2, _ := fs.Open("short.sst")
	if _, err := Open(rf2); err == nil {
		t.Fatal("opening short file must fail")
	}
}

func TestQuickTableModel(t *testing.T) {
	// Property: a table built from any sorted unique key set serves every
	// key and reports absent probes absent (modulo bloom false positives,
	// which Get resolves via the index, so correctness is exact).
	fn := func(raw map[string]string, probe string) bool {
		if len(raw) == 0 {
			return true
		}
		keys := make([]string, 0, len(raw))
		for k := range raw {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fs := vfs.NewMem()
		f, _ := fs.Create("q.sst")
		w := NewWriter(f, 1)
		for i, k := range keys {
			if w.Add(ikey.Make([]byte(k), uint64(i+1), ikey.KindSet), []byte(raw[k])) != nil {
				return false
			}
		}
		if _, err := w.Finish(); err != nil {
			return false
		}
		rf, _ := fs.Open("q.sst")
		r, err := Open(rf)
		if err != nil {
			return false
		}
		defer r.Close()
		for _, k := range keys {
			v, _, found, deleted, err := r.Get([]byte(k), ikey.MaxSeq)
			if err != nil || !found || deleted || string(v) != raw[k] {
				return false
			}
		}
		if _, ok := raw[probe]; !ok {
			_, _, found, _, err := r.Get([]byte(probe), ikey.MaxSeq)
			if err != nil || found {
				return false
			}
		}
		return true
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// allocTable writes n 128-byte records (a few hundred data blocks at 20,000)
// and returns the file to open readers on.
func allocTable(t *testing.T, n int) vfs.File {
	t.Helper()
	fs := vfs.NewMem()
	f, _ := fs.Create("a.sst")
	w := NewWriter(f, 1)
	for i := 0; i < n; i++ {
		w.Add(ikey.Make([]byte(fmt.Sprintf("user%012d", i)), uint64(i+1), ikey.KindSet), make([]byte, 128))
	}
	if _, err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	rf, err := fs.Open("a.sst")
	if err != nil {
		t.Fatal(err)
	}
	return rf
}

func TestReaderWithBlockCache(t *testing.T) {
	fs := vfs.NewMem()
	f, _ := fs.Create("b.sst")
	w := NewWriter(f, 1)
	for i := 0; i < 2000; i++ {
		ik := ikey.Make([]byte(fmt.Sprintf("key%06d", i)), uint64(i+1), ikey.KindSet)
		w.Add(ik, []byte(fmt.Sprintf("val%d", i)))
	}
	if _, err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	rf, _ := fs.Open("b.sst")
	c := cache.New(1 << 20)
	r, err := OpenNamed(rf, c, 7, "")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	// Same block twice: second read must be a cache hit.
	r.Get([]byte("key000100"), ikey.MaxSeq)
	r.Get([]byte("key000101"), ikey.MaxSeq)
	hits, _, _ := c.Stats()
	if hits == 0 {
		t.Fatal("block cache never hit")
	}
	if v, _, found, _, _ := r.Get([]byte("key000100"), ikey.MaxSeq); !found || string(v) != "val100" {
		t.Fatalf("cached read wrong: %q %v", v, found)
	}
	if n := c.Pinned(); n != 0 {
		t.Fatalf("%d blocks still pinned after the lookups returned", n)
	}
}

// TestFindCached: FindCached answers through resident blocks exactly as Find
// does, and where Find would read the device it answers ErrWouldRead, reads
// nothing and leaves the hit untouched.
func TestFindCached(t *testing.T) {
	rf := allocTable(t, 2000)
	c := cache.New(1 << 20)
	r, err := OpenNamed(rf, c, 7, "")
	if err != nil {
		t.Fatal(err)
	}
	key := []byte(fmt.Sprintf("user%012d", 100))
	best := Hit{Val: []byte("kept")}
	if err := r.FindCached(key, ikey.MaxSeq, &best); err != ErrWouldRead {
		t.Fatalf("FindCached of a block never read = %v, want ErrWouldRead", err)
	}
	if best.Found || string(best.Val) != "kept" {
		t.Fatalf("FindCached that would read changed the hit: %+v", best)
	}
	if _, misses, _ := c.Stats(); misses != 0 {
		t.Fatalf("FindCached counted %d misses", misses)
	}
	var want Hit
	if err := r.Find(key, ikey.MaxSeq, &want); err != nil || !want.Found {
		t.Fatalf("Find = %+v, %v", want, err)
	}
	var got Hit
	if err := r.FindCached(key, ikey.MaxSeq, &got); err != nil || !got.Found || got.Seq != want.Seq || !bytes.Equal(got.Val, want.Val) {
		t.Fatalf("FindCached of a resident block = %+v, %v; Find gave %+v", got, err, want)
	}
	if n := c.Pinned(); n != 0 {
		t.Fatalf("%d blocks still pinned after the lookups returned", n)
	}
	uncached, err := Open(allocTable(t, 200))
	if err != nil {
		t.Fatal(err)
	}
	if err := uncached.FindCached(key, ikey.MaxSeq, &got); err != ErrWouldRead {
		t.Fatalf("FindCached on a reader without a block cache = %v, want ErrWouldRead", err)
	}
}

// TestIterPinsOneBlock: an iterator on a cached reader holds exactly one pin
// while positioned — through evictions, in a cache of a few blocks — and none
// once it is exhausted or closed; what it read is what an uncached reader
// reads.
func TestIterPinsOneBlock(t *testing.T) {
	rf := allocTable(t, 5000)
	c := cache.New(64 << 10) // 4 KiB a shard: every block evicts another
	r, err := OpenNamed(rf, c, 3, "")
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Open(rf)
	if err != nil {
		t.Fatal(err)
	}
	it, want := r.NewIterator(), plain.NewIterator()
	n := 0
	want.SeekToFirst()
	for it.SeekToFirst(); it.Valid(); it.Next() {
		if !want.Valid() || !bytes.Equal(it.Key(), want.Key()) || !bytes.Equal(it.Value(), want.Value()) {
			t.Fatalf("entry %d: cached iterator at %q, uncached at %q", n, it.Key(), want.Key())
		}
		if p := c.Pinned(); p != 1 {
			t.Fatalf("entry %d: %d blocks pinned, want 1", n, p)
		}
		want.Next()
		n++
	}
	if it.Error() != nil || want.Valid() || n != 5000 {
		t.Fatalf("scan ended after %d entries, err %v", n, it.Error())
	}
	if p := c.Pinned(); p != 0 {
		t.Fatalf("%d blocks pinned by an exhausted iterator", p)
	}
	it.Seek(ikey.SeekKey([]byte("user000000002500"), ikey.MaxSeq))
	if !it.Valid() || c.Pinned() != 1 {
		t.Fatalf("re-seek: valid %v, %d pinned", it.Valid(), c.Pinned())
	}
	it.Close()
	if it.Valid() || c.Pinned() != 0 {
		t.Fatalf("after Close: valid %v, %d pinned", it.Valid(), c.Pinned())
	}
}

// TestGetAllocs pins the in-place point lookup: with the data block cached,
// Find builds no iterator and no seek key, and its one copy — the value, out
// of the pinned block — lands in the caller's buffer. A miss reads into a
// buffer the cache recycles; without a cache the lookup pays for the block
// buffer and nothing else.
func TestGetAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation pins are not meaningful under the race detector")
	}
	rf := allocTable(t, 20000)
	r, err := OpenNamed(rf, cache.New(64<<20), 3, "")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	hot := []byte(fmt.Sprintf("user%012d", 12345))
	hit := Hit{Val: make([]byte, 0, 128)}
	find := func(r *Reader) func() {
		return func() {
			hit.Found = false
			if err := r.Find(hot, ikey.MaxSeq, &hit); err != nil || !hit.Found || len(hit.Val) != 128 {
				t.Fatalf("Find = %d bytes, found %v, err %v", len(hit.Val), hit.Found, err)
			}
		}
	}
	if n := testing.AllocsPerRun(200, find(r)); n != 0 {
		t.Errorf("Find on a cached block: %.0f allocs, want 0", n)
	}

	evicting, err := OpenNamed(rf, cache.New(64<<10), 4, "")
	if err != nil {
		t.Fatal(err)
	}
	var keys [][]byte
	for i := 0; i <= 2000; i++ { // a block or more between consecutive lookups
		keys = append(keys, []byte(fmt.Sprintf("user%012d", i*997%20000)))
	}
	i := 0
	if n := testing.AllocsPerRun(2000, func() {
		hit.Found = false
		if err := evicting.Find(keys[i], ikey.MaxSeq, &hit); err != nil || !hit.Found {
			t.Fatalf("Find found %v, err %v", hit.Found, err)
		}
		i++
	}); n != 0 {
		t.Errorf("Find evicting a block to read its own: %.0f allocs, want 0", n)
	}

	uncached, err := Open(rf)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(200, find(uncached)); n > 1 {
		t.Errorf("Find reading its block: %.0f allocs, want <= 1 (the block buffer)", n)
	}
}

// TestScanAllocs: walking a whole table through a reader without a block
// cache reads every block into one buffer the Iter owns — the Iter, that
// buffer and its growth to the largest block are all a scan allocates.
func TestScanAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation pins are not meaningful under the race detector")
	}
	r, err := Open(allocTable(t, 20000))
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(5, func() {
		it, entries := r.NewIterator(), 0
		for it.SeekToFirst(); it.Valid(); it.Next() {
			entries++
		}
		it.Close()
		if it.Error() != nil || entries != 20000 {
			t.Fatalf("scan saw %d entries, err %v", entries, it.Error())
		}
	}); n > 4 {
		t.Errorf("full scan of an uncached table: %.0f allocs in total, want <= 4", n)
	}
	if n := testing.AllocsPerRun(5, func() {
		if _, err := r.Verify(); err != nil {
			t.Fatal(err)
		}
	}); n > 4 {
		t.Errorf("Verify: %.0f allocs in total, want <= 4 (one buffer, grown)", n)
	}
}

// TestGetWithoutFilter: Get answers from the index and data blocks alone, so
// a caller that skips MayContain still gets the right answer for absent keys.
func TestGetWithoutFilter(t *testing.T) {
	r, _ := buildTable(t, sortedPairs(3000))
	defer r.Close()
	for _, k := range []string{"key", "key001500x", "zzz"} {
		if _, _, found, _, err := r.Get([]byte(k), ikey.MaxSeq); found || err != nil {
			t.Fatalf("Get(%q) = found %v, err %v", k, found, err)
		}
	}
	long := bytes.Repeat([]byte("k"), 3*seekKeyBuf) // outgrows the stack seek buffer
	if _, _, found, _, err := r.Get(long, ikey.MaxSeq); found || err != nil {
		t.Fatalf("Get(long key) = found %v, err %v", found, err)
	}
}
