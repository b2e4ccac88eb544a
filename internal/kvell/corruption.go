package kvell

import (
	"cmp"
	"context"
	"encoding/binary"
	"fmt"

	"p2kvs/internal/block"
	"p2kvs/internal/kv"
)

// At-rest corruption containment (DESIGN.md §12).
//
// KVell's only durable state is the slabs, and the in-memory index is
// rebuilt from them at every open — so a flipped bit has two distinct
// blast radii:
//
//   - Detected at RECOVERY: the scan cannot tell "this slot is free"
//     from "this slot's key bytes are damaged", so a corrupt slot means
//     the rebuilt index may be missing a key that was durably written.
//     The worker is poisoned: index hits still serve (their slots verify
//     on read), but index misses can no longer prove absence and fail
//     with kv.ErrCorruption, as do scans (completeness is unprovable)
//     and writes (read-only-minus, mirroring the disk-full state
//     machine). The corrupt slot itself is left in place — neither
//     indexed nor put on the free list — so nothing overwrites the
//     evidence before an operator restores the shard.
//   - Detected at READ time (slot damaged after a clean recovery): the
//     index is complete, so containment is per-key — that Get fails with
//     kv.ErrCorruption while every other key, including misses, stays
//     sound. A later Put of the same key rewrites the slot in place,
//     which is the engine's only self-repair (slabs have no per-file
//     backup granularity; a full shard restore is the remedy otherwise).
//
// A slot is klen u16 | vlen u32 | crc u32 | key | value, the CRC-32C
// covering key||value. A worker directory carries a FORMAT marker naming
// that layout, written by the open that finds the directory blank, before
// any slot is; slab bytes without the marker are the unchecksummed layout
// of before PR 7, which nothing reads any more — open refuses the
// directory instead of parsing it.

const (
	slotHdr = 10 // klen u16 | vlen u32 | crc u32 (CRC-32C of key||value)

	formatName = "FORMAT"
	formatV2   = "slab-format=2\n"
)

// errNoFormat refuses a worker directory that holds slab bytes without the
// FORMAT marker.
func (w *worker) errNoFormat() error {
	return &kv.CorruptionError{
		File:   fmt.Sprintf("w%02d/%s", w.id, formatName),
		Detail: "kvell: slab data without a FORMAT marker (the marker was lost, or the slabs predate slot checksums; neither is readable)",
	}
}

// corruptSlotErr builds the typed error for a damaged slot.
func (w *worker) corruptSlotErr(class int, slot int64, detail string) error {
	return &kv.CorruptionError{
		File:   fmt.Sprintf("w%02d/slab-%d.dat", w.id, slabClasses[class]),
		Offset: slot * int64(slabClasses[class]),
		Detail: detail,
	}
}

// slotKeyLen reads a slot's klen: the key length, and whether the slot is
// live (neither never written nor freed).
func slotKeyLen(rec []byte) (klen int, live bool) {
	switch k := binary.LittleEndian.Uint16(rec); k {
	case 0, freeMark:
		return 0, false
	case emptyKeyMark:
		return 0, true
	default:
		return int(k), true
	}
}

// verifySlot checks a live slot image (header already known non-free).
// It returns the parsed klen/vlen on success.
func (w *worker) verifySlot(rec []byte, class int, slot int64) (klen, vlen int, err error) {
	klen, _ = slotKeyLen(rec)
	vlen = int(binary.LittleEndian.Uint32(rec[2:]))
	if slotHdr+klen+vlen > len(rec) {
		return 0, 0, w.corruptSlotErr(class, slot, "kvell: slot header out of bounds")
	}
	if block.Checksum(rec[slotHdr:slotHdr+klen+vlen]) != binary.LittleEndian.Uint32(rec[6:]) {
		return 0, 0, w.corruptSlotErr(class, slot, "kvell: slot checksum mismatch")
	}
	return klen, vlen, nil
}

var _ kv.Scrubber = (*Store)(nil)

// Scrub implements kv.Scrubber through kv.ScrubFiles over every worker's
// slabs, each live slot's checksum re-verified. The read runs on the worker
// goroutine (slabs are share-nothing; reading them from outside would race
// in-place updates), one slab per request so foreground ops interleave
// between slabs. KVell cannot repair in place — slabs have no per-file
// backup granularity — so restore-from-backup is the repair path.
func (s *Store) Scrub(ctx context.Context, lim kv.RateLimiter) (kv.ScrubResult, error) {
	return kv.ScrubFiles(ctx, lim, s.scrubList, func(f kv.ScrubFile) (int64, error) {
		req := &request{op: opScrub, limit: int(f.Num % len6), scrubBytes: f.Size}
		err := s.submit(s.workers[f.Num/len6], req)
		return req.scrubBytes, err
	}, nil)
}

func (s *Store) scrubList() ([]kv.ScrubFile, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return nil, kv.ErrClosed
	}
	var files []kv.ScrubFile
	for _, w := range s.workers {
		for class, sl := range w.slabs {
			size, err := sl.f.Size()
			if err != nil {
				return nil, err
			}
			files = append(files, kv.ScrubFile{Name: fmt.Sprintf("w%02d/slab-%d.dat", w.id, slabClasses[class]),
				Num: uint64(w.id*len6 + class), Size: size})
		}
	}
	return files, nil
}

// scrubSlab re-reads the first size bytes of one slab and verifies every
// live slot, returning the bytes read and the first corruption found; a
// chunk that cannot be read ends the pass over the slab and counts as one.
// The guard counts each corrupt slot. Runs on the worker goroutine.
func (w *worker) scrubSlab(class int, size int64) (int64, error) {
	sl := w.slabs[class]
	var first error
	n, err := sl.slots(min(sl.nslots, size/sl.slotSize), func(slot int64, rec []byte) {
		if _, live := slotKeyLen(rec); !live {
			return
		}
		if _, _, err := w.verifySlot(rec, class, slot); err != nil {
			w.g.NoteCorruption(err)
			first = cmp.Or(first, err)
		}
	})
	if err != nil {
		err = w.corruptSlotErr(class, n/sl.slotSize, "kvell: slab unreadable during scrub")
		w.g.NoteCorruption(err)
	}
	return n, cmp.Or(first, err)
}
