package block

import (
	"bytes"
	"testing"

	"p2kvs/internal/ikey"
)

// FuzzIterParse: arbitrary bytes fed to the block parser must never
// panic or read out of bounds — they either iterate cleanly or fail with
// ErrCorrupt. (Compactions and reads parse blocks straight from disk, so
// a corrupt file must not crash the engine.)
func FuzzIterParse(f *testing.F) {
	// Seed with a valid block and some mutations.
	var b Builder
	for _, k := range []string{"alpha", "beta", "gamma"} {
		b.Add([]byte(k), []byte("value-"+k))
	}
	valid := b.Finish()
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 1})
	mutated := append([]byte(nil), valid...)
	mutated[0] ^= 0xff
	f.Add(mutated)
	truncated := valid[:len(valid)/2]
	f.Add(truncated)

	f.Fuzz(func(t *testing.T, data []byte) {
		it, err := NewIter(data)
		if err != nil {
			return
		}
		count := 0
		for it.SeekToFirst(); it.Valid() && count < 10000; it.Next() {
			_ = it.Key()
			_ = it.Value()
			count++
		}
		// Seeks on arbitrary parsed blocks must also be safe.
		it.Seek([]byte("probe"))
		if it.Valid() {
			_ = it.Key()
		}
		// ... and so must the internal-key seek SSTables use, whose
		// comparator reads an 8-byte trailer off every key it is shown.
		it.SeekInternal(ikey.SeekKey([]byte("probe"), 7))
		if it.Valid() {
			_ = it.Key()
		}
	})
}

// FuzzBuilderRoundTrip: any sorted unique key set round-trips.
func FuzzBuilderRoundTrip(f *testing.F) {
	f.Add([]byte("a"), []byte("b"), []byte("c"))
	f.Add([]byte(""), []byte("x"), []byte("xy"))
	f.Fuzz(func(t *testing.T, k1, k2, k3 []byte) {
		keys := [][]byte{k1, k2, k3}
		// Keep only a strictly ascending subsequence.
		var sorted [][]byte
		for _, k := range keys {
			if len(sorted) == 0 || bytes.Compare(k, sorted[len(sorted)-1]) > 0 {
				sorted = append(sorted, k)
			}
		}
		if len(sorted) == 0 {
			return
		}
		var b Builder
		for i, k := range sorted {
			b.Add(k, []byte{byte(i)})
		}
		it, err := NewIter(b.Finish())
		if err != nil {
			t.Fatal(err)
		}
		i := 0
		for it.SeekToFirst(); it.Valid(); it.Next() {
			if !bytes.Equal(it.Key(), sorted[i]) {
				t.Fatalf("key %d = %q, want %q", i, it.Key(), sorted[i])
			}
			i++
		}
		if i != len(sorted) {
			t.Fatalf("iterated %d, want %d", i, len(sorted))
		}
	})
}
