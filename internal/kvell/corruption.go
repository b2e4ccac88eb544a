package kvell

import (
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

// Scrub implements kv.Scrubber: every slab of every worker is re-read and
// each live slot's checksum re-verified. The scan itself runs on the
// worker goroutine (slabs are share-nothing; reading them from outside
// would race in-place updates), one slab per request so foreground ops
// interleave between slabs; the rate limiter is charged on the caller's
// goroutine after each slab so a slow budget never parks a worker. KVell
// cannot repair in place — slabs have no per-file backup granularity — so
// FilesRepaired is always zero here; restore-from-backup is the repair path.
func (s *Store) Scrub(ctx context.Context, lim kv.RateLimiter) (kv.ScrubResult, error) {
	var res kv.ScrubResult
	for _, w := range s.workers {
		for class := range slabClasses {
			if err := ctx.Err(); err != nil {
				return res, err
			}
			req := &request{op: opScrub, limit: class}
			if err := s.submit(w, req); err != nil {
				return res, err
			}
			res.FilesScanned++
			res.BytesScanned += req.scrubBytes
			res.CorruptionsFound += req.scrubCorrupt
			if lim != nil && req.scrubBytes > 0 {
				if err := lim.WaitN(ctx, int(req.scrubBytes)); err != nil {
					return res, err
				}
			}
		}
	}
	return res, nil
}

// scrubSlab re-reads one slab and verifies every live slot, reporting
// bytes covered and corruptions found. Runs on the worker goroutine.
func (w *worker) scrubSlab(class int) (bytes, corrupt int64) {
	sl := w.slabs[class]
	if sl == nil {
		return 0, 0
	}
	const chunkSlots = 512
	buf := make([]byte, sl.slotSize*chunkSlots)
	for base := int64(0); base < sl.nslots; base += chunkSlots {
		n := sl.nslots - base
		if n > chunkSlots {
			n = chunkSlots
		}
		chunk := buf[:n*sl.slotSize]
		if _, err := sl.f.ReadAt(chunk, base*sl.slotSize); err != nil {
			// An unreadable region counts as corrupt; keep scanning.
			corrupt++
			w.g.NoteCorruption(w.corruptSlotErr(class, base, "kvell: slab unreadable during scrub"))
			continue
		}
		bytes += int64(len(chunk))
		for i := int64(0); i < n; i++ {
			rec := chunk[i*sl.slotSize : (i+1)*sl.slotSize]
			if _, live := slotKeyLen(rec); !live {
				continue
			}
			if _, _, err := w.verifySlot(rec, class, base+i); err != nil {
				corrupt++
				w.g.NoteCorruption(err)
			}
		}
	}
	return bytes, corrupt
}
