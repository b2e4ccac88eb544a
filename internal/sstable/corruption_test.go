package sstable

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"p2kvs/internal/ikey"
	"p2kvs/internal/kv"
	"p2kvs/internal/vfs"
)

// TestV2FlipSweep flips single bits across the whole file and requires
// every flip to be detected at Open or Verify — except in the footer's
// 4 dead padding bytes, which no reader consumes. A Get of every key must
// meanwhile never return a wrong value.
func TestV2FlipSweep(t *testing.T) {
	fs := vfs.NewMem()
	f, err := fs.Create("t.sst")
	if err != nil {
		t.Fatal(err)
	}
	w := NewWriter(f, 7, BlockSize)
	pairs := sortedPairs(600) // a few data blocks
	for i, p := range pairs {
		if err := w.Add(ikey.Make([]byte(p[0]), uint64(i+1), ikey.KindSet), []byte(p[1])); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	f.Close()
	pristine, err := vfs.ReadFile(fs, "t.sst")
	if err != nil {
		t.Fatal(err)
	}
	size := int64(len(pristine))
	padStart, padEnd := size-12, size-8 // footer pad u32: not covered, not consumed

	// Sweeping every (offset, bit) is ~size*8 table opens; stride through
	// offsets and rotate the bit position instead — every region of the
	// file still gets hit.
	for off := int64(0); off < size; off += 13 {
		if off >= padStart && off < padEnd {
			continue
		}
		bit := byte(1 << (off % 8))
		mut := append([]byte(nil), pristine...)
		mut[off] ^= bit
		name := fmt.Sprintf("mut-%d.sst", off)
		mf, err := fs.Create(name)
		if err != nil {
			t.Fatal(err)
		}
		mf.Write(mut)
		mf.Close()

		rf, err := fs.Open(name)
		if err != nil {
			t.Fatal(err)
		}
		r, err := OpenNamed(rf, nil, 0, name)
		if err != nil {
			// Detected at open (footer/index/filter damage) — must be a
			// corruption report, not a panic or a wrong parse.
			if !errors.Is(err, kv.ErrCorruption) {
				t.Fatalf("off %d: open error %v is not ErrCorruption", off, err)
			}
			rf.Close()
			fs.Remove(name)
			continue
		}
		if _, verr := r.Verify(); !errors.Is(verr, kv.ErrCorruption) {
			t.Fatalf("off %d: flip not detected by Verify (err %v)", off, verr)
		}
		// Reads during the damage must never produce a wrong value.
		for _, idx := range []int{0, 299, 599} {
			v, _, found, _, gerr := lookup(r, []byte(pairs[idx][0]), ikey.MaxSeq)
			if gerr != nil {
				if !errors.Is(gerr, kv.ErrCorruption) {
					t.Fatalf("off %d: Get error %v is not ErrCorruption", off, gerr)
				}
				continue
			}
			if found && !bytes.Equal(v, []byte(pairs[idx][1])) {
				t.Fatalf("off %d: Get(%q) served wrong value %q", off, pairs[idx][0], v)
			}
		}
		r.Close()
		fs.Remove(name)
	}
}
