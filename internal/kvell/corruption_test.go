package kvell

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"p2kvs/internal/kv"
	"p2kvs/internal/vfs"
)

// corrOpts pins a single worker (deterministic placement: every key lands
// in w00) and a 1-byte cache budget so reads always hit the slab, where
// the checksum check lives.
func corrOpts(fs vfs.FS) Options {
	return Options{FS: fs, Workers: 1, CacheBytes: 1}
}

// TestRuntimeSlotFlipIsPerKey: a bit flip under a running store is caught
// by the read-path checksum and contained to that one key — the index is
// complete, so other keys and true absences are unaffected, and an
// in-place Put of the damaged key self-repairs.
func TestRuntimeSlotFlipIsPerKey(t *testing.T) {
	fs := vfs.NewFault(vfs.NewMem())
	s, err := Open("db", corrOpts(fs))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	if err := s.Put([]byte("alpha"), []byte("value-alpha")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put([]byte("beta"), []byte("value-beta")); err != nil {
		t.Fatal(err)
	}
	// "alpha" is the first put: class 0 (slab-128), slot 0. Its first
	// value byte sits at slot*128 + hdr(10) + len("alpha").
	if err := fs.CorruptAt("db/w00/slab-128.dat", 10+5); err != nil {
		t.Fatal(err)
	}

	_, err = s.Get([]byte("alpha"))
	if !errors.Is(err, kv.ErrCorruption) {
		t.Fatalf("Get(alpha) = %v, want ErrCorruption", err)
	}
	var ce *kv.CorruptionError
	if !errors.As(err, &ce) {
		t.Fatalf("Get(alpha) error %v is not a *kv.CorruptionError", err)
	}
	// Blast radius is one key: the sibling serves, absence is still provable.
	if v, err := s.Get([]byte("beta")); err != nil || string(v) != "value-beta" {
		t.Fatalf("Get(beta) = %q, %v", v, err)
	}
	if _, err := s.Get([]byte("gamma")); !errors.Is(err, kv.ErrNotFound) {
		t.Fatalf("Get(gamma) = %v, want ErrNotFound", err)
	}
	// In-place rewrite is the engine's self-repair.
	if err := s.Put([]byte("alpha"), []byte("value-alpha-2")); err != nil {
		t.Fatalf("self-repair Put: %v", err)
	}
	if v, err := s.Get([]byte("alpha")); err != nil || string(v) != "value-alpha-2" {
		t.Fatalf("Get(alpha) after rewrite = %q, %v", v, err)
	}
	if h := s.Health(); h.CorruptionEvents == 0 || h.LastCorruption == nil {
		t.Fatalf("Health = %+v, want corruption recorded", h)
	}
}

// TestRecoveryCorruptionPoisonsWorker: a slot recovery cannot trust may
// hide a durably written key, so the rebuilt index cannot prove absence —
// misses, scans and writes fail; index hits keep serving (their slots
// verify on read).
func TestRecoveryCorruptionPoisonsWorker(t *testing.T) {
	fs := vfs.NewFault(vfs.NewMem())
	s, err := Open("db", corrOpts(fs))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := s.Put([]byte(fmt.Sprintf("k-%04d", i)), []byte(fmt.Sprintf("v-%04d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Flip a key byte of slot 0 ("k-0000", offset hdr=10 into the slot):
	// the recovery scan's checksum check must refuse the slot.
	if err := fs.CorruptAt("db/w00/slab-128.dat", 10); err != nil {
		t.Fatal(err)
	}

	s2, err := Open("db", corrOpts(fs))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()

	// The damaged key is an index miss — and a poisoned worker cannot
	// claim NotFound.
	if _, err := s2.Get([]byte("k-0000")); !errors.Is(err, kv.ErrCorruption) {
		t.Fatalf("Get(k-0000) = %v, want ErrCorruption", err)
	}
	if _, err := s2.Get([]byte("never-written")); !errors.Is(err, kv.ErrCorruption) {
		t.Fatalf("Get(absent) = %v, want ErrCorruption", err)
	}
	// Index hits verify on read and keep serving.
	for i := 1; i < 10; i++ {
		k := fmt.Sprintf("k-%04d", i)
		v, err := s2.Get([]byte(k))
		if err != nil {
			t.Fatalf("Get(%q): %v", k, err)
		}
		if string(v) != fmt.Sprintf("v-%04d", i) {
			t.Fatalf("Get(%q) = %q: wrong value", k, v)
		}
	}
	err = s2.Put([]byte("new"), []byte("v"))
	if !errors.Is(err, kv.ErrDegraded) || !errors.Is(err, kv.ErrCorruption) {
		t.Fatalf("Put = %v, want ErrDegraded wrapping ErrCorruption", err)
	}
	if _, err := s2.Scan(nil, 100); !errors.Is(err, kv.ErrCorruption) {
		t.Fatalf("Scan = %v, want ErrCorruption", err)
	}
	h := s2.Health()
	if h.QuarantinedFiles != 1 || h.State != kv.StateReadOnly {
		t.Fatalf("Health = %+v, want 1 quarantined worker, read-only", h)
	}
	if h.CorruptionEvents == 0 || h.LastCorruption == nil {
		t.Fatalf("Health = %+v, want corruption recorded", h)
	}
}

// TestScrubFindsFlipWithoutReads: a scrub pass walks every slab slot and
// reports damage no foreground read has touched.
func TestScrubFindsFlipWithoutReads(t *testing.T) {
	fs := vfs.NewFault(vfs.NewMem())
	s, err := Open("db", corrOpts(fs))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 10; i++ {
		if err := s.Put([]byte(fmt.Sprintf("k-%04d", i)), []byte(fmt.Sprintf("v-%04d", i))); err != nil {
			t.Fatal(err)
		}
	}
	res, err := s.Scrub(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.FilesScanned != int64(len(slabClasses)) {
		t.Fatalf("FilesScanned = %d, want %d", res.FilesScanned, len(slabClasses))
	}
	if res.CorruptionsFound != 0 || res.BytesScanned == 0 {
		t.Fatalf("clean scrub = %+v", res)
	}

	if err := fs.CorruptAt("db/w00/slab-128.dat", 3*128+10); err != nil { // slot 3 key byte
		t.Fatal(err)
	}
	res, err = s.Scrub(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.CorruptionsFound != 1 {
		t.Fatalf("CorruptionsFound = %d, want 1", res.CorruptionsFound)
	}
	if h := s.Health(); h.CorruptionEvents == 0 {
		t.Fatalf("Health = %+v, want CorruptionEvents > 0", h)
	}
	// Scrub only observes: the worker is not poisoned, damage stays
	// per-key (slot 3 holds "k-0003").
	if _, err := s.Get([]byte("k-0003")); !errors.Is(err, kv.ErrCorruption) {
		t.Fatalf("Get(k-0003) = %v, want ErrCorruption", err)
	}
	if v, err := s.Get([]byte("k-0004")); err != nil || string(v) != "v-0004" {
		t.Fatalf("Get(k-0004) = %q, %v", v, err)
	}
}
