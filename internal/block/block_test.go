package block

import (
	"bytes"
	"fmt"
	"sort"
	"testing"
	"testing/quick"

	"p2kvs/internal/ikey"
	"p2kvs/internal/raceflag"
)

func buildBlock(pairs [][2]string) []byte {
	var b Builder
	for _, p := range pairs {
		b.Add([]byte(p[0]), []byte(p[1]))
	}
	return b.Finish()
}

func TestRoundTrip(t *testing.T) {
	pairs := [][2]string{
		{"apple", "1"}, {"apples", "2"}, {"banana", "3"},
		{"bananb", "4"}, {"cherry", "5"},
	}
	blk := buildBlock(pairs)
	it, err := NewIter(blk)
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	for it.SeekToFirst(); it.Valid(); it.Next() {
		if string(it.Key()) != pairs[i][0] || string(it.Value()) != pairs[i][1] {
			t.Fatalf("entry %d = %q/%q, want %q/%q", i, it.Key(), it.Value(), pairs[i][0], pairs[i][1])
		}
		i++
	}
	if i != len(pairs) {
		t.Fatalf("iterated %d, want %d", i, len(pairs))
	}
	if it.Err() != nil {
		t.Fatal(it.Err())
	}
}

func TestRestartPointsExercised(t *testing.T) {
	// More entries than the restart interval so multiple restarts exist.
	var pairs [][2]string
	for i := 0; i < 100; i++ {
		pairs = append(pairs, [2]string{fmt.Sprintf("key%04d", i), fmt.Sprintf("v%d", i)})
	}
	blk := buildBlock(pairs)
	it, err := NewIter(blk)
	if err != nil {
		t.Fatal(err)
	}
	if it.numRestarts() < 2 {
		t.Fatalf("expected multiple restarts, got %d", it.numRestarts())
	}
	// Seek to each key exactly.
	for _, p := range pairs {
		it.Seek([]byte(p[0]))
		if !it.Valid() || string(it.Key()) != p[0] {
			t.Fatalf("Seek(%q) landed on %q", p[0], it.Key())
		}
		if string(it.Value()) != p[1] {
			t.Fatalf("Seek(%q) value %q, want %q", p[0], it.Value(), p[1])
		}
	}
	// Seek between keys.
	it.Seek([]byte("key0042x"))
	if !it.Valid() || string(it.Key()) != "key0043" {
		t.Fatalf("between-seek landed on %q", it.Key())
	}
	// Seek past the end.
	it.Seek([]byte("zzz"))
	if it.Valid() {
		t.Fatal("seek past end should be invalid")
	}
}

func TestGet(t *testing.T) {
	blk := buildBlock([][2]string{{"a", "1"}, {"b", "2"}, {"c", "3"}})
	v, ok, err := Get(blk, []byte("b"))
	if err != nil || !ok || string(v) != "2" {
		t.Fatalf("Get(b) = %q %v %v", v, ok, err)
	}
	_, ok, err = Get(blk, []byte("bb"))
	if err != nil || ok {
		t.Fatalf("Get(bb) found=%v err=%v", ok, err)
	}
}

func TestEmptyValuesAndSharedPrefixes(t *testing.T) {
	pairs := [][2]string{{"k", ""}, {"ka", ""}, {"kaa", "x"}, {"kab", ""}}
	blk := buildBlock(pairs)
	it, _ := NewIter(blk)
	i := 0
	for it.SeekToFirst(); it.Valid(); it.Next() {
		if string(it.Key()) != pairs[i][0] || string(it.Value()) != pairs[i][1] {
			t.Fatalf("entry %d mismatch: %q/%q", i, it.Key(), it.Value())
		}
		i++
	}
	if i != 4 {
		t.Fatalf("iterated %d", i)
	}
}

func TestCorruptBlocks(t *testing.T) {
	if _, err := NewIter(nil); err == nil {
		t.Fatal("nil block must error")
	}
	if _, err := NewIter([]byte{1, 2, 3}); err == nil {
		t.Fatal("short block must error")
	}
	// A block claiming absurd restart count.
	bad := make([]byte, 16)
	bad[12] = 0xff
	bad[13] = 0xff
	if _, err := NewIter(bad); err == nil {
		t.Fatal("bogus restart count must error")
	}
}

func TestBuilderReset(t *testing.T) {
	var b Builder
	b.Add([]byte("a"), []byte("1"))
	b.Reset()
	if !b.Empty() || b.Entries() != 0 {
		t.Fatal("reset did not clear builder")
	}
	b.Add([]byte("b"), []byte("2"))
	blk := b.Finish()
	v, ok, err := Get(blk, []byte("b"))
	if err != nil || !ok || string(v) != "2" {
		t.Fatal("builder unusable after reset")
	}
}

func TestSeekInternalOrder(t *testing.T) {
	// Internal-key order: user key ascending, then newer versions first.
	// Enough entries for several restart points, three versions per key.
	var b Builder
	for i := 0; i < 40; i++ {
		uk := []byte(fmt.Sprintf("key%03d", i))
		for _, seq := range []uint64{30, 20, 10} {
			b.Add(ikey.Make(uk, seq, ikey.KindSet), []byte(fmt.Sprintf("v%d@%d", i, seq)))
		}
	}
	it, err := NewIter(b.Finish())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		uk := []byte(fmt.Sprintf("key%03d", i))
		for _, c := range []struct{ snap, want uint64 }{{ikey.MaxSeq, 30}, {25, 20}, {20, 20}, {10, 10}} {
			it.SeekInternal(ikey.SeekKey(uk, c.snap))
			if !it.Valid() {
				t.Fatalf("SeekInternal(%s@%d) invalid", uk, c.snap)
			}
			gotUK, gotSeq, _, _ := ikey.Decode(it.Key())
			if !bytes.Equal(gotUK, uk) || gotSeq != c.want {
				t.Fatalf("SeekInternal(%s@%d) landed on %s@%d, want seq %d", uk, c.snap, gotUK, gotSeq, c.want)
			}
		}
		// Below the oldest version the seek moves on to the next user key.
		it.SeekInternal(ikey.SeekKey(uk, 5))
		if i == 39 {
			if it.Valid() {
				t.Fatalf("seek past the last version landed on %q", it.Key())
			}
			continue
		}
		if gotUK, _, _, _ := ikey.Decode(it.Key()); string(gotUK) != fmt.Sprintf("key%03d", i+1) {
			t.Fatalf("SeekInternal(%s@5) landed on %s", uk, gotUK)
		}
	}
}

// TestSeekAllocs pins the in-place search: once an Iter exists, positioning
// it allocates nothing — no decoded restart array, no materialised restart
// keys, and entry keys up to inlineKey bytes land in the Iter's own buffer.
func TestSeekAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation pins are not meaningful under the race detector")
	}
	var b Builder
	for i := 0; i < 200; i++ {
		b.Add(ikey.Make([]byte(fmt.Sprintf("user%012d", i)), 7, ikey.KindSet), make([]byte, 32))
	}
	blk := b.Finish()
	it, err := NewIter(blk)
	if err != nil {
		t.Fatal(err)
	}
	target := ikey.SeekKey([]byte(fmt.Sprintf("user%012d", 137)), ikey.MaxSeq)
	if n := testing.AllocsPerRun(100, func() {
		it.SeekInternal(target)
		it.Next()
		it.Seek(target)
		it.SeekToFirst()
	}); n != 0 {
		t.Errorf("seek on a constructed Iter: %.0f allocs, want 0", n)
	}
	// A cursor declared as a local and pointed at a block costs nothing at all.
	if n := testing.AllocsPerRun(100, func() {
		var local Iter
		if err := local.Init(blk); err != nil {
			t.Fatal(err)
		}
		local.SeekInternal(target)
		if !local.Valid() {
			t.Fatal("seek missed")
		}
	}); n != 0 {
		t.Errorf("Init+SeekInternal on a local Iter: %.0f allocs, want 0", n)
	}
}

func TestQuickRoundTripAndSeek(t *testing.T) {
	fn := func(raw map[string]string, probe string) bool {
		if len(raw) == 0 {
			return true
		}
		keys := make([]string, 0, len(raw))
		for k := range raw {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var b Builder
		for _, k := range keys {
			b.Add([]byte(k), []byte(raw[k]))
		}
		it, err := NewIter(b.Finish())
		if err != nil {
			return false
		}
		// Full iteration matches.
		i := 0
		for it.SeekToFirst(); it.Valid(); it.Next() {
			if string(it.Key()) != keys[i] || string(it.Value()) != raw[keys[i]] {
				return false
			}
			i++
		}
		if i != len(keys) || it.Err() != nil {
			return false
		}
		// Seek agrees with sort.SearchStrings.
		idx := sort.SearchStrings(keys, probe)
		it.Seek([]byte(probe))
		if idx == len(keys) {
			return !it.Valid()
		}
		return it.Valid() && string(it.Key()) == keys[idx]
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestLongKeysSpill covers keys longer than the Iter's inline buffer, which
// move to a heap buffer mid-block (short keys first, so the switch happens
// while a shared prefix is live).
func TestLongKeysSpill(t *testing.T) {
	var pairs [][2]string
	for i := 0; i < 20; i++ {
		pairs = append(pairs, [2]string{fmt.Sprintf("a%03d", i), "short"})
	}
	long := "b" + string(bytes.Repeat([]byte{'x'}, 2*inlineKey))
	for i := 0; i < 50; i++ {
		pairs = append(pairs, [2]string{fmt.Sprintf("%s%03d", long, i), fmt.Sprintf("long%d", i)})
	}
	it, err := NewIter(buildBlock(pairs))
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	for it.SeekToFirst(); it.Valid(); it.Next() {
		if string(it.Key()) != pairs[i][0] || string(it.Value()) != pairs[i][1] {
			t.Fatalf("entry %d = %q/%q, want %q/%q", i, it.Key(), it.Value(), pairs[i][0], pairs[i][1])
		}
		i++
	}
	if i != len(pairs) || it.Err() != nil {
		t.Fatalf("iterated %d of %d, err %v", i, len(pairs), it.Err())
	}
	for _, p := range pairs {
		if it.Seek([]byte(p[0])); !it.Valid() || string(it.Key()) != p[0] || string(it.Value()) != p[1] {
			t.Fatalf("Seek(%q) landed on %q", p[0], it.Key())
		}
	}
}

// NewIter parses an encoded block into a heap-allocated Iter.
func NewIter(block []byte) (*Iter, error) {
	it := new(Iter)
	if err := it.Init(block); err != nil {
		return nil, err
	}
	return it, nil
}

// Get is a point lookup inside one block.
func Get(blk, key []byte) ([]byte, bool, error) {
	var it Iter
	if err := it.Init(blk); err != nil {
		return nil, false, err
	}
	it.Seek(key)
	if it.Err() != nil {
		return nil, false, it.Err()
	}
	if it.Valid() && bytes.Equal(it.Key(), key) {
		return it.Value(), true, nil
	}
	return nil, false, nil
}
