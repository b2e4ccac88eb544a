// Package btreekv is the WiredTiger-style B+-tree engine used in the
// paper's portability study (§4.6, Figure 23). Its characteristics, as
// relevant to p2KVS, are: a WAL for durability, an in-memory B+-tree of
// recent updates in front of an on-disk checkpoint, a coarse store-level
// latch serializing writers (single-instance writes scale poorly — the
// premise of Figure 23), and NO batch-write capability, which disables
// p2KVS's OBM-write path on this engine.
//
// Checkpoints are modeled as full sorted serializations of the store
// (reusing the SSTable format as the page file): WiredTiger reconciles
// dirty pages into its on-disk B-tree; here the reconciliation granularity
// is the whole tree, which preserves the cost shape (periodic large
// sequential writes, point reads via an on-disk index) at much lower
// implementation complexity. Documented in DESIGN.md as a substitution.
package btreekv

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"time"

	"strings"

	"p2kvs/internal/block"
	"p2kvs/internal/bptree"
	"p2kvs/internal/guard"
	"p2kvs/internal/ikey"
	"p2kvs/internal/kv"
	"p2kvs/internal/sstable"
	"p2kvs/internal/vfs"
	"p2kvs/internal/wal"
)

// Options configures the engine.
type Options struct {
	// FS hosts the engine's files. Required.
	FS vfs.FS
	// WALSync selects the journal durability policy (the zero value,
	// wal.PolicyNever, never fsyncs on commit). WALSyncInterval bounds
	// staleness under wal.PolicyInterval (default 100ms).
	WALSync         wal.SyncPolicy
	WALSyncInterval time.Duration
	// CheckpointBytes is the dirty-buffer budget that triggers a
	// checkpoint (default 8 MiB).
	CheckpointBytes int64
	// PerUpdateCost / PerReadCost model the per-request host software
	// path (tree descent, journal encode) in simulated time — zero for
	// production use, set by the scaled-time benchmarks. Updates pay
	// theirs under the store latch (the serialization Figure 23 shows
	// p2KVS sharding away); reads pay theirs under the shared latch.
	PerUpdateCost time.Duration
	PerReadCost   time.Duration
	// RepairSource, when non-nil, supplies known-good backup bytes for a
	// corrupt base checkpoint (keyed by base name, e.g. "ckpt-000003.db");
	// see corruption.go. Journal corruption is not repairable in place.
	RepairSource kv.RepairSource
}

type dirtyVal struct {
	val  []byte
	tomb bool
}

// DB is one WiredTiger-style instance.
type DB struct {
	opts Options
	dir  string

	mu     sync.RWMutex
	dirty  *bptree.Tree[dirtyVal]
	dirtyB int64
	base   *sstable.Reader // current checkpoint, nil when none
	gen    uint64
	wal    *wal.Writer
	closed bool

	// Online-backup pins (see PrepareCheckpoint): while one is held, a
	// backup in progress may still be copying a retired generation, so its
	// files are retired through Remove.
	kv.CheckpointState

	// g holds the degraded state (health.go): a full disk or a detected
	// corruption blocks writes through it, and it resumes the store once
	// space frees.
	g *guard.Guard

	// Corruption containment (corruption.go). Guarded by corrMu — its own
	// mutex so read paths holding the shared latch can record detections.
	corrMu       sync.Mutex
	corrErr      error
	corrBaseOnly bool
}

var _ kv.Engine = (*DB)(nil)

func ckptName(dir string, gen uint64) string { return fmt.Sprintf("%s/ckpt-%06d.db", dir, gen) }
func walName(dir string, gen uint64) string  { return fmt.Sprintf("%s/journal-%06d.log", dir, gen) }
func metaName(dir string) string             { return dir + "/META" }

// openBase opens generation gen's base checkpoint.
func (d *DB) openBase(gen uint64) (*sstable.Reader, error) {
	f, err := d.opts.FS.Open(ckptName(d.dir, gen))
	if err != nil {
		return nil, err
	}
	r, err := sstable.OpenNamed(f, nil, 0, baseName(gen))
	if err != nil {
		f.Close()
	}
	return r, err
}

// encodeMeta renders META: the generation pointer plus a CRC-32C guard
// over it. META is the store's root — a silently misread generation
// resurrects an old image (or an empty one), which is wholesale silent
// data loss — so it gets the same at-rest protection as data blocks.
func encodeMeta(gen uint64) []byte {
	body := fmt.Sprintf("gen=%d", gen)
	return []byte(fmt.Sprintf("%s crc=%08x\n", body, block.Checksum([]byte(body))))
}

// parseMeta reads the guarded form "gen=N crc=XXXXXXXX". Anything else —
// the bare "gen=N" of before PR 7 included — is reported as corruption:
// guessing at a generation is never acceptable.
func parseMeta(raw []byte) (uint64, error) {
	body, guard, ok := strings.Cut(strings.TrimRight(string(raw), "\n"), " ")
	if !ok {
		return 0, &kv.CorruptionError{File: "META", Detail: "missing checksum field"}
	}
	var crc uint32
	if _, err := fmt.Sscanf(guard, "crc=%08x", &crc); err != nil {
		return 0, &kv.CorruptionError{File: "META", Detail: "malformed checksum field"}
	}
	if block.Checksum([]byte(body)) != crc {
		return 0, &kv.CorruptionError{File: "META", Detail: "checksum mismatch"}
	}
	// Strict round-trip: Sscanf stops at the first non-digit, so trailing
	// bytes under a matching checksum must not scan as a generation.
	var gen uint64
	if _, err := fmt.Sscanf(body, "gen=%d", &gen); err != nil || body != fmt.Sprintf("gen=%d", gen) {
		return 0, &kv.CorruptionError{File: "META", Detail: "malformed generation field"}
	}
	return gen, nil
}

// Open opens (creating if necessary) the store at dir.
func Open(dir string, opts Options) (*DB, error) {
	if opts.FS == nil {
		return nil, errors.New("btreekv: Options.FS is required")
	}
	if opts.CheckpointBytes <= 0 {
		opts.CheckpointBytes = 8 << 20
	}
	if err := opts.FS.MkdirAll(dir); err != nil {
		return nil, err
	}
	d := &DB{opts: opts, dir: dir, dirty: bptree.New[dirtyVal]()}
	d.g = guard.New("btreekv", opts.FS, dir, d.reclaimSpace, d.Resume, 0, 0)

	// Load the checkpoint generation from META.
	if opts.FS.Exists(metaName(dir)) {
		raw, err := vfs.ReadFile(opts.FS, metaName(dir))
		if err != nil {
			return nil, err
		}
		gen, err := parseMeta(raw)
		if err != nil {
			return nil, fmt.Errorf("btreekv: corrupt META: %w", err)
		}
		d.gen = gen
	}
	// A generation can legitimately lack a checkpoint file: a checkpoint
	// whose merged content was empty (everything deleted) bumps the
	// generation without writing one.
	if d.gen > 0 && opts.FS.Exists(ckptName(dir, d.gen)) {
		r, err := d.openBase(d.gen)
		if err != nil {
			if !errors.Is(err, kv.ErrCorruption) {
				return nil, err
			}
			// Corrupt base, intact journal: open in base-only containment
			// (dirty hits serve, misses fail with ErrCorruption) rather
			// than refusing the whole shard — Scrub can repair the base
			// from backup without a restart.
			d.noteCorruption(err, true)
		} else {
			d.base = r
		}
	}

	// Replay the journal into the dirty tree.
	if opts.FS.Exists(walName(dir, d.gen)) {
		recs, err := wal.ReadAll(opts.FS, walName(dir, d.gen))
		if err != nil {
			if !errors.Is(err, kv.ErrCorruption) {
				return nil, err
			}
			// A complete journal record lost its bytes at rest: the
			// recovered dirty tree is a prefix, so any key may be stale.
			// Contain the whole shard — every read fails loudly until a
			// restore — instead of serving a silently-rewound state.
			d.noteCorruption(&kv.CorruptionError{
				File: fmt.Sprintf("journal-%06d.log", d.gen), Offset: -1,
				Detail: "btreekv: journal corrupt at rest; recovered state is a prefix",
			}, false)
		}
		for _, rec := range recs {
			key, val, tomb, err := decodeRec(rec.Payload)
			if err != nil {
				return nil, err
			}
			d.applyDirty(key, val, tomb)
		}
	}

	wf, err := opts.FS.Create(walName(dir, d.gen) + ".new")
	if err != nil {
		return nil, err
	}
	d.wal = wal.NewWriter(wf, d.walOpts())
	// Re-log replayed state, then swap the journal in atomically.
	reErr := error(nil)
	d.dirty.Ascend(nil, func(k []byte, v dirtyVal) bool {
		if err := d.wal.Append(0, encodeRec(k, v.val, v.tomb)); err != nil {
			reErr = err
			return false
		}
		return true
	})
	if reErr != nil {
		return nil, reErr
	}
	if err := d.wal.Sync(); err != nil {
		return nil, err
	}
	if err := opts.FS.Rename(walName(dir, d.gen)+".new", walName(dir, d.gen)); err != nil {
		return nil, err
	}
	return d, nil
}

func (d *DB) walOpts() wal.Options {
	return wal.Options{Policy: d.opts.WALSync, SyncEvery: d.opts.WALSyncInterval}
}

func encodeRec(key, val []byte, tomb bool) []byte {
	b := make([]byte, 0, 5+len(key)+len(val))
	if tomb {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	b = append(b, byte(len(key)), byte(len(key)>>8))
	b = append(b, key...)
	return append(b, val...)
}

func decodeRec(p []byte) (key, val []byte, tomb bool, err error) {
	if len(p) < 3 {
		return nil, nil, false, errors.New("btreekv: short journal record")
	}
	tomb = p[0] == 1
	klen := int(p[1]) | int(p[2])<<8
	if 3+klen > len(p) {
		return nil, nil, false, errors.New("btreekv: truncated journal key")
	}
	key = append([]byte(nil), p[3:3+klen]...)
	val = append([]byte(nil), p[3+klen:]...)
	return key, val, tomb, nil
}

func (d *DB) applyDirty(key, val []byte, tomb bool) {
	d.dirty.Set(key, dirtyVal{val: val, tomb: tomb})
	d.dirtyB += int64(len(key) + len(val) + 16)
}

// Put implements kv.Engine. Writers serialize on the store latch — the
// behaviour Figure 23 shows p2KVS working around with instance sharding.
func (d *DB) Put(key, value []byte) error { return d.update(key, value, false) }

// Delete implements kv.Engine.
func (d *DB) Delete(key []byte) error { return d.update(key, nil, true) }

func (d *DB) update(key, value []byte, tomb bool) error {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return kv.ErrClosed
	}
	if err := d.g.Err(); err != nil {
		// Degraded (disk full, or a corruption that makes the recovered
		// state unsound): fail writes fast; reads keep serving.
		d.mu.Unlock()
		return err
	}
	if d.opts.PerUpdateCost > 0 {
		time.Sleep(d.opts.PerUpdateCost)
	}
	if err := d.wal.Append(0, encodeRec(key, value, tomb)); err != nil {
		switch {
		case vfs.IsNoSpace(err):
			// Checkpoint self-heal would write a whole new generation on
			// the same full disk; degrade instead and let the guard
			// re-platform at Resume.
			d.g.Degrade("journal append", err)
		case d.wal.Tainted():
			// The journal may end in a torn or unsynced record; anything
			// appended behind it would be silently dropped at replay.
			// Re-platform on a fresh checkpoint + journal (best-effort —
			// on failure the next update retries the same path).
			_ = d.checkpointLocked()
		}
		d.mu.Unlock()
		return err
	}
	d.applyDirty(append([]byte(nil), key...), append([]byte(nil), value...), tomb)
	needCkpt := d.dirtyB >= d.opts.CheckpointBytes
	if needCkpt {
		err := d.checkpointLocked()
		if err != nil && vfs.IsNoSpace(err) {
			// The write itself was acked (journal append succeeded); only
			// the reconciliation hit the full disk. Degrade so further
			// writes don't pile onto an unreconcilable dirty buffer.
			d.g.Degrade("checkpoint", err)
			err = nil
		}
		d.mu.Unlock()
		return err
	}
	d.mu.Unlock()
	return nil
}

// Get implements kv.Engine. Readers share the latch.
func (d *DB) Get(key []byte) ([]byte, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if d.closed {
		return nil, kv.ErrClosed
	}
	if d.opts.PerReadCost > 0 {
		time.Sleep(d.opts.PerReadCost)
	}
	if cerr, baseOnly := d.corruption(); cerr != nil && !baseOnly {
		// Journal corruption: the dirty tree is a prefix, even hits may be
		// stale. Nothing in this shard is trustworthy.
		return nil, cerr
	}
	if dv, ok := d.dirty.Get(key); ok {
		if dv.tomb {
			return nil, kv.ErrNotFound
		}
		return append([]byte(nil), dv.val...), nil
	}
	if cerr, baseOnly := d.corruption(); cerr != nil && baseOnly {
		// Dirty miss with a corrupt base: the base's version (or proof of
		// absence) is unreadable — fail loudly, never guess NotFound.
		return nil, cerr
	}
	if d.base != nil && d.base.MayContain(key) {
		var h sstable.Hit
		if err := d.base.Find(key, ikey.MaxSeq, &h); err != nil {
			if errors.Is(err, kv.ErrCorruption) {
				d.noteCorruption(err, true)
			}
			return nil, err
		}
		if h.Found && !h.Deleted {
			return h.Val, nil // already the caller's own copy
		}
	}
	return nil, kv.ErrNotFound
}

// Checkpoint forces reconciliation of the dirty buffer to disk.
func (d *DB) Checkpoint() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return kv.ErrClosed
	}
	return d.checkpointLocked()
}

// checkpointLocked merges dirty + base into a new checkpoint file,
// updates META, and truncates the journal. Caller holds the write latch
// (checkpoints stall the store, a real WiredTiger behaviour under heavy
// dirty growth).
func (d *DB) checkpointLocked() error {
	if cerr, _ := d.corruption(); cerr != nil {
		// Reconciling would read the corrupt base (or persist a rewound
		// dirty prefix) into the next generation, laundering bad data into
		// a "clean" checkpoint. Refuse until repair/restore.
		return cerr
	}
	if d.dirty.Len() == 0 && !d.wal.Tainted() {
		return nil
	}
	newGen := d.gen + 1
	f, err := d.opts.FS.Create(ckptName(d.dir, newGen))
	if err != nil {
		return err
	}
	w := sstable.NewWriter(f, newGen, sstable.BlockSize)

	// Merge dirty (wins) with base in key order.
	var baseIt *sstable.Iter
	if d.base != nil {
		baseIt = d.base.NewIterator()
		defer baseIt.Close()
		baseIt.SeekToFirst()
	}
	// emitBaseUpTo copies the base's entries below bound; all lifts the
	// bound (a nil bound is the empty key, which sorts first).
	emitBaseUpTo := func(bound []byte, all bool) error {
		for baseIt != nil && baseIt.Valid() {
			uk := ikey.UserKey(baseIt.Key())
			if !all && bytes.Compare(uk, bound) >= 0 {
				return nil
			}
			if err := w.Add(ikey.Make(uk, 1, ikey.KindSet), baseIt.Value()); err != nil {
				return err
			}
			baseIt.Next()
		}
		if baseIt != nil {
			return baseIt.Error()
		}
		return nil
	}
	var mergeErr error
	d.dirty.Ascend(nil, func(k []byte, v dirtyVal) bool {
		if err := emitBaseUpTo(k, false); err != nil {
			mergeErr = err
			return false
		}
		// Skip the base's version of k, if any.
		if baseIt != nil && baseIt.Valid() && bytes.Equal(ikey.UserKey(baseIt.Key()), k) {
			baseIt.Next()
		}
		if !v.tomb {
			if err := w.Add(ikey.Make(k, 1, ikey.KindSet), v.val); err != nil {
				mergeErr = err
				return false
			}
		}
		return true
	})
	if mergeErr == nil {
		mergeErr = emitBaseUpTo(nil, true)
	}
	if mergeErr != nil {
		f.Close()
		d.opts.FS.Remove(ckptName(d.dir, newGen))
		return mergeErr
	}
	if _, err := w.Finish(); err != nil {
		// An entirely-empty store (all tombstones) is legal: treat as no
		// checkpoint.
		f.Close()
		d.opts.FS.Remove(ckptName(d.dir, newGen))
		if err.Error() != "sstable: empty table" {
			return err
		}
	}
	f.Close()

	// Fresh journal for the new generation, then commit META atomically.
	wf, err := d.opts.FS.Create(walName(d.dir, newGen))
	if err != nil {
		return err
	}
	if err := vfs.WriteFileAtomic(d.opts.FS, metaName(d.dir), encodeMeta(newGen)); err != nil {
		return err
	}

	// Swap in-memory state; retire the old generation.
	oldWAL, oldBase, oldGen := d.wal, d.base, d.gen
	d.wal = wal.NewWriter(wf, d.walOpts())
	d.dirty = bptree.New[dirtyVal]()
	d.dirtyB = 0
	d.gen = newGen
	if d.opts.FS.Exists(ckptName(d.dir, newGen)) {
		r, err := d.openBase(newGen)
		if err != nil {
			return err
		}
		d.base = r
	} else {
		d.base = nil
	}
	oldWAL.Close()
	d.Remove(d.opts.FS, walName(d.dir, oldGen))
	if oldBase != nil {
		oldBase.Close()
		d.Remove(d.opts.FS, ckptName(d.dir, oldGen))
	}
	return nil
}

// Flush implements kv.Engine (checkpoint + journal sync).
func (d *DB) Flush() error { return d.Checkpoint() }

// Caps reports no batch capabilities: WiredTiger has neither WriteBatch
// nor multiget (§4.6).
func (d *DB) Caps() kv.Caps { return kv.Caps{} }

// Metrics reports structure sizes.
type Metrics struct {
	DirtyBytes int64
	DirtyKeys  int
	Gen        uint64
}

// Metrics snapshots the store.
func (d *DB) Metrics() Metrics {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return Metrics{DirtyBytes: d.dirtyB, DirtyKeys: d.dirty.Len(), Gen: d.gen}
}

// Close implements kv.Engine.
func (d *DB) Close() error {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return nil
	}
	d.closed = true
	d.mu.Unlock()
	// Stop the guard without holding the latch — a resume in flight takes it.
	d.g.Close()
	d.mu.Lock()
	defer d.mu.Unlock()
	err := d.wal.Close()
	if d.base != nil {
		d.base.Close()
	}
	return err
}

// ---------------------------------------------------------------------------
// Iterator
// ---------------------------------------------------------------------------

// NewIterator implements kv.Engine. It materializes the merged view at
// call time (the dirty tree is small by construction — bounded by
// CheckpointBytes — and the base is immutable).
func (d *DB) NewIterator() (kv.Iterator, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if d.closed {
		return nil, kv.ErrClosed
	}
	if cerr, _ := d.corruption(); cerr != nil {
		// A scan's completeness depends on both layers; fail loudly
		// rather than silently omitting the unreadable one.
		return nil, cerr
	}
	var dirtyEntries []kv.Pair
	tombs := map[string]bool{}
	d.dirty.Ascend(nil, func(k []byte, v dirtyVal) bool {
		if v.tomb {
			tombs[string(k)] = true
		} else {
			dirtyEntries = append(dirtyEntries, kv.Pair{Key: append([]byte(nil), k...), Value: append([]byte(nil), v.val...)})
		}
		return true
	})
	var merged []kv.Pair
	di := 0
	emitDirtyUpTo := func(bound []byte) {
		for di < len(dirtyEntries) && (bound == nil || bytes.Compare(dirtyEntries[di].Key, bound) < 0) {
			merged = append(merged, dirtyEntries[di])
			di++
		}
	}
	if d.base != nil {
		it := d.base.NewIterator()
		defer it.Close()
		for it.SeekToFirst(); it.Valid(); it.Next() {
			uk := ikey.UserKey(it.Key())
			emitDirtyUpTo(uk)
			if tombs[string(uk)] {
				continue
			}
			if di < len(dirtyEntries) && bytes.Equal(dirtyEntries[di].Key, uk) {
				merged = append(merged, dirtyEntries[di])
				di++
				continue
			}
			merged = append(merged, kv.Pair{Key: append([]byte(nil), uk...), Value: append([]byte(nil), it.Value()...)})
		}
		if err := it.Error(); err != nil {
			return nil, err
		}
	}
	emitDirtyUpTo(nil)
	return kv.NewSliceIter(merged), nil
}
