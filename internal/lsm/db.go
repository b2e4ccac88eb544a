package lsm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"p2kvs/internal/bloom"
	"p2kvs/internal/cache"
	"p2kvs/internal/guard"
	"p2kvs/internal/ikey"
	"p2kvs/internal/kv"
	"p2kvs/internal/manifest"
	"p2kvs/internal/memtable"
	"p2kvs/internal/sstable"
	"p2kvs/internal/wal"
)

// memHandle pairs a memtable with its WAL so late concurrent writers are
// drained before the memtable is flushed (writers holds one count per
// in-flight Write that may still insert into this memtable).
type memHandle struct {
	mem     *memtable.MemTable
	logNum  uint64
	writers sync.WaitGroup
	walw    *wal.Writer
}

// DB is one LSM-tree instance: the unit p2KVS shards over.
type DB struct {
	opts Options
	dir  string

	seq    atomic.Uint64
	closed atomic.Bool

	mu   sync.Mutex
	cond *sync.Cond // stall/flush-progress signaling
	memH *memHandle
	imm  []*memHandle // flush queue, oldest first
	wal  *wal.Writer  // == memH.walw; nil when MemTableOnly
	vs   *manifest.Set

	// rs is what reads consult instead of memH, imm and vs: an immutable
	// readState, rebuilt and swapped under mu by publishReadStateLocked
	// wherever one of the three changes, and loaded without any lock by
	// Get, MultiGet, iterators and snapshots.
	rs atomic.Pointer[readState]

	// Running compactions (scheduler.go). compWG counts them, background
	// and manual alike, so Close can wait them out before tearing down the
	// manifest.
	compRunning []*compactionJob
	compWG      sync.WaitGroup
	flushing    int // flushOne calls past their degraded check; reclaimSpace waits them out

	// g holds the degraded state, the disk-full poll and the health
	// counters (bgerror.go); it is degraded only under mu, so a loop that
	// tests g.Err inside mu and waits on cond misses no transition. The
	// *Failing flags track jobs currently in their retry loop.
	g              *guard.Guard
	flushFailing   bool
	compactFailing bool

	// Checkpoint pins (checkpoint.go): while one is held, an in-progress
	// checkpoint still references the captured version's SSTs and WAL
	// prefixes, so every obsolete file is retired through Remove.
	kv.CheckpointState

	// Corruption quarantine (corruption.go): file number -> the corruption
	// error that condemned it; g.Quarantined mirrors its size. Reads
	// covering a quarantined file's range fail with kv.ErrCorruption;
	// compactions skip it; repair lifts the entry. repairing guards against
	// concurrent repair attempts on one file; repairWG tracks async repair
	// goroutines for Close.
	quar      map[uint64]error
	repairing map[uint64]bool
	repairWG  sync.WaitGroup

	writerMu sync.Mutex // serializes writes when !RocksDBFeatures

	tcache *tableCache
	blocks *cache.Cache
	perf   perfCounters

	flushC   chan struct{}
	compactC chan struct{}
	stopC    chan struct{}
	bgWG     sync.WaitGroup
}

var _ kv.Engine = (*DB)(nil)
var _ kv.BatchWriter = (*DB)(nil)
var _ kv.GSNWriter = (*DB)(nil)
var _ kv.MultiGetter = (*DB)(nil)
var _ kv.HealthReporter = (*DB)(nil)

// OpenOptions carries per-open recovery hooks beyond the engine Options.
type OpenOptions struct {
	// RecoverFilter, when non-nil, is consulted for every WAL record with
	// a non-zero GSN during replay; records whose GSN it rejects are
	// dropped. p2KVS uses it to roll back uncommitted cross-instance
	// transactions (§4.5).
	RecoverFilter func(gsn uint64) bool
}

// Open opens (creating if necessary) the instance rooted at dir.
func Open(dir string, opts Options) (*DB, error) {
	return OpenWith(dir, opts, OpenOptions{})
}

// OpenWith opens with recovery hooks.
func OpenWith(dir string, opts Options, oo OpenOptions) (*DB, error) {
	opts = opts.withDefaults()
	if opts.FS == nil {
		return nil, errors.New("lsm: Options.FS is required")
	}
	if err := opts.FS.MkdirAll(dir); err != nil {
		return nil, err
	}
	vs, err := manifest.Open(opts.FS, dir)
	if err != nil {
		return nil, err
	}
	var blocks *cache.Cache
	if opts.BlockCacheSize > 0 {
		blocks = cache.New(opts.BlockCacheSize)
	}
	d := &DB{
		opts:      opts,
		dir:       dir,
		vs:        vs,
		blocks:    blocks,
		tcache:    newTableCache(opts.FS, dir, blocks),
		quar:      make(map[uint64]error),
		repairing: make(map[uint64]bool),
		flushC:    make(chan struct{}, 1),
		compactC:  make(chan struct{}, 1),
		stopC:     make(chan struct{}),
	}
	d.cond = sync.NewCond(&d.mu)
	d.g = guard.New("lsm", opts.FS, dir, d.reclaimSpace, d.Resume, opts.BgBaseBackoff, opts.BgMaxBackoff)
	d.seq.Store(vs.LastSeq)
	d.loadQuarantine()

	if err := d.replayWALs(oo); err != nil {
		vs.Close()
		return nil, err
	}
	if d.memH == nil {
		if err := d.installMemtable(); err != nil {
			vs.Close()
			return nil, err
		}
	}
	d.bgWG.Add(2)
	go d.flushLoop()
	go d.compactLoop()
	return d, nil
}

func walName(dir string, num uint64) string { return fmt.Sprintf("%s/%06d.log", dir, num) }
func sstName(dir string, num uint64) string { return fmt.Sprintf("%s/%06d.sst", dir, num) }

// replayWALs rebuilds the memtable from any logs newer than the
// manifest's LogNum (standard crash recovery, Figure 2's log replay).
func (d *DB) replayWALs(oo OpenOptions) error {
	names, err := d.opts.FS.List(d.dir)
	if err != nil {
		return err
	}
	var logNums []uint64
	for _, n := range names {
		var num uint64
		// Mark every on-disk file number as used before allocating any
		// new one: the crashed process may have allocated numbers (for
		// the live WAL, or orphaned SSTs) that no persisted edit
		// records, and reusing such a number would truncate the file.
		if _, err := fmt.Sscanf(n, "%d.sst", &num); err == nil && strings.HasSuffix(n, ".sst") {
			d.vs.MarkFileNumUsed(num)
			continue
		}
		if _, err := fmt.Sscanf(n, "%d.log", &num); err == nil && strings.HasSuffix(n, ".log") {
			d.vs.MarkFileNumUsed(num)
			if num >= d.vs.LogNum {
				logNums = append(logNums, num)
			} else {
				// Stale log already covered by flushed SSTs.
				d.opts.FS.Remove(walName(d.dir, num))
			}
		}
	}
	sort.Slice(logNums, func(i, j int) bool { return logNums[i] < logNums[j] })

	for _, num := range logNums {
		recs, err := wal.ReadAll(d.opts.FS, walName(d.dir, num))
		if err != nil {
			return err
		}
		if d.memH == nil {
			if err := d.installMemtable(); err != nil {
				return err
			}
		}
		for _, rec := range recs {
			if rec.GSN != 0 && oo.RecoverFilter != nil && !oo.RecoverFilter(rec.GSN) {
				continue
			}
			base, ops, err := decodeBatchPayload(rec.Payload)
			if err != nil {
				return err
			}
			for i, op := range ops {
				seq := base + uint64(i)
				kind := ikey.KindSet
				if op.Kind == kv.OpDelete {
					kind = ikey.KindDelete
				}
				d.memH.mem.Add(seq, kind, op.Key, op.Value)
				if seq > d.seq.Load() {
					d.seq.Store(seq)
				}
			}
		}
	}

	if d.memH != nil && !d.memH.mem.Empty() && d.wal != nil {
		// Re-log the recovered entries so the new WAL covers them. Each
		// entry keeps its ORIGINAL sequence number (one single-op record
		// per entry): the memtable iterates newest-version-first within a
		// key, so renumbering in iteration order would invert version
		// order and surface stale values after a second crash.
		it := d.memH.mem.NewIterator()
		wrote := false
		var payload []byte
		for it.SeekToFirst(); it.Valid(); it.Next() {
			uk, seq, kind, err := ikey.Decode(it.Key())
			if err != nil {
				return err
			}
			var batch kv.Batch
			if kind == ikey.KindDelete {
				batch.Delete(uk)
			} else {
				batch.Put(uk, it.Value())
			}
			payload = appendBatchPayload(payload[:0], seq, &batch)
			if err := d.wal.Append(0, payload); err != nil {
				return err
			}
			wrote = true
		}
		if wrote {
			if err := d.wal.Sync(); err != nil {
				return err
			}
		}
	}
	// Only now that the surviving entries are durable in the fresh log is
	// it safe to delete the old ones.
	for _, num := range logNums {
		d.opts.FS.Remove(walName(d.dir, num))
	}
	return nil
}

// walOptions configures every WAL this DB opens.
func (d *DB) walOptions() wal.Options {
	return wal.Options{Policy: d.opts.WALSync, SyncEvery: d.opts.WALSyncInterval,
		PerRecordCost: d.opts.WALPerRecordCost, PerByteCost: d.opts.WALPerByteCost}
}

// newMemHandle builds a fresh memtable, its whole-key filter sized from the
// memtable budget, and — unless the WAL is off — the log its writes go to,
// under a new file number.
func (d *DB) newMemHandle() (*memHandle, error) {
	h := &memHandle{mem: memtable.New(d.opts.RocksDBFeatures, d.opts.MemTableSize)}
	if !d.opts.MemTableOnly {
		h.logNum = d.vs.NewFileNum()
		f, err := d.opts.FS.Create(walName(d.dir, h.logNum))
		if err != nil {
			return nil, err
		}
		h.walw = wal.NewWriter(f, d.walOptions())
	}
	return h, nil
}

// installMemtable creates a fresh memtable + WAL and makes them current.
// Caller must not hold d.mu.
func (d *DB) installMemtable() error {
	h, err := d.newMemHandle()
	if err != nil {
		return err
	}
	d.mu.Lock()
	d.memH = h
	d.wal = h.walw
	d.publishReadStateLocked()
	d.mu.Unlock()
	return nil
}

// ---------------------------------------------------------------------------
// Write path
// ---------------------------------------------------------------------------

// appendBatchPayload serializes a batch for the WAL behind dst:
// baseSeq u64 | count u32 | ops (the shared kv op codec).
func appendBatchPayload(dst []byte, baseSeq uint64, b *kv.Batch) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, baseSeq)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(b.Len()))
	return kv.AppendOps(dst, b.Ops())
}

// payloadBufs recycles the encoded WAL payload of a write. wal.Append
// copies the payload into the log's own buffer before it returns — as a
// leader, a follower or alone — so the buffer is the writer's again the
// moment Append is back, whatever happened to the record. A pool, not a
// field of the DB: a pipelined DB has many writers inside WriteGSN at once.
var payloadBufs = sync.Pool{New: func() any { return new([]byte) }}

// decodeBatchPayload is the inverse; the ops alias p.
func decodeBatchPayload(p []byte) (baseSeq uint64, ops []kv.BatchOp, err error) {
	if len(p) < 12 {
		return 0, nil, errors.New("lsm: short batch payload")
	}
	ops, _, err = kv.DecodeOps(p[12:], uint64(binary.LittleEndian.Uint32(p[8:])))
	if err != nil {
		return 0, nil, fmt.Errorf("lsm: batch payload: %w", err)
	}
	return binary.LittleEndian.Uint64(p), ops, nil
}

// Put implements kv.Engine.
func (d *DB) Put(key, value []byte) error {
	var b kv.Batch
	b.Put(key, value)
	return d.Write(&b)
}

// Delete implements kv.Engine.
func (d *DB) Delete(key []byte) error {
	var b kv.Batch
	b.Delete(key)
	return d.Write(&b)
}

// Write implements kv.BatchWriter: it applies the batch atomically
// through one WAL record.
func (d *DB) Write(b *kv.Batch) error { return d.WriteGSN(b, 0) }

// WriteGSN implements kv.GSNWriter: Write with a p2KVS Global Sequence
// Number recorded in the log for cross-instance transaction recovery.
func (d *DB) WriteGSN(b *kv.Batch, gsn uint64) error {
	if d.closed.Load() {
		return kv.ErrClosed
	}
	if b.Len() == 0 {
		return nil
	}
	start := time.Now()
	if err := d.maybeStall(); err != nil {
		return err
	}

	if !d.opts.RocksDBFeatures {
		// LevelDB-style single-writer path: log + index serialized.
		lockStart := time.Now()
		d.writerMu.Lock()
		d.perf.memLockNs.Add(int64(time.Since(lockStart)))
		defer d.writerMu.Unlock()
	}

	// Pin the current memtable+WAL pair so rotation can't separate them.
	d.mu.Lock()
	if err := d.g.Err(); err != nil {
		d.mu.Unlock()
		return err
	}
	h := d.memH
	h.writers.Add(1)
	d.mu.Unlock()
	defer h.writers.Done()

	n := uint64(b.Len())
	baseSeq := d.seq.Add(n) - n + 1

	if !d.opts.MemTableOnly {
		buf := payloadBufs.Get().(*[]byte)
		*buf = appendBatchPayload((*buf)[:0], baseSeq, b)
		err := h.walw.Append(gsn, *buf)
		payloadBufs.Put(buf)
		if err != nil {
			d.noteWriteFailure(h, err)
			return err
		}
	}

	if !d.opts.WALOnly {
		memStart := time.Now()
		for i, op := range b.Ops() {
			kind := ikey.KindSet
			if op.Kind == kv.OpDelete {
				kind = ikey.KindDelete
			}
			h.mem.Add(baseSeq+uint64(i), kind, op.Key, op.Value)
		}
		d.perf.memNs.Add(int64(time.Since(memStart)))
	}

	d.perf.writes.Add(int64(n))
	d.perf.userBytes.Add(int64(b.Size()))
	d.perf.totalNs.Add(int64(time.Since(start)))

	d.maybeRotate(h)
	return nil
}

// maybeStall applies write backpressure. Two tiers (§2.1): past
// L0StallTrigger (or a full flush queue) writers block until compaction
// catches up — the paper's "write stall". Between L0SlowdownTrigger and
// L0StallTrigger writers are merely delayed with a sleep that scales with
// L0 pressure, so throughput degrades smoothly instead of falling off the
// stall cliff (RocksDB's delayed-write path).
func (d *DB) maybeStall() error {
	d.mu.Lock()
	waited := time.Time{}
	for d.g.Err() == nil && !d.closed.Load() &&
		(len(d.imm) >= d.opts.MaxImmutables ||
			len(d.vs.Current().Levels[0]) >= d.opts.L0StallTrigger) {
		if waited.IsZero() {
			waited = time.Now()
		}
		d.kick()
		d.cond.Wait()
	}
	if !waited.IsZero() {
		d.perf.stallNs.Add(int64(time.Since(waited)))
	}
	err := d.g.Err()
	l0 := len(d.vs.Current().Levels[0])
	slowdown := err == nil && !d.closed.Load() &&
		l0 >= d.opts.L0SlowdownTrigger && l0 < d.opts.L0StallTrigger
	if slowdown {
		d.kick()
	}
	d.mu.Unlock()
	if slowdown {
		span := d.opts.L0StallTrigger - d.opts.L0SlowdownTrigger
		if span < 1 {
			span = 1
		}
		delay := slowdownDelay * time.Duration(l0-d.opts.L0SlowdownTrigger+1) / time.Duration(span)
		if delay > 0 {
			time.Sleep(delay)
			d.perf.slowdownNs.Add(int64(delay))
			d.perf.slowdowns.Add(1)
		}
	}
	return err
}

// maybeRotate makes the memtable immutable once it exceeds its budget.
func (d *DB) maybeRotate(h *memHandle) {
	if d.opts.WALOnly {
		return
	}
	if h.mem.ApproximateSize() < d.opts.MemTableSize {
		return
	}
	d.mu.Lock()
	if d.memH != h { // someone else already rotated
		d.mu.Unlock()
		return
	}
	d.rotateLocked()
	d.mu.Unlock()
}

// rotateLocked retires the current memtable into the flush queue and
// installs a fresh one. Caller holds d.mu.
func (d *DB) rotateLocked() {
	old := d.memH
	h, err := d.newMemHandle()
	if err != nil {
		// Without a fresh log no new write can be made durable; block
		// writes until Resume retries the rotation.
		d.degradeLocked("wal rotation", err)
		return
	}
	// Fold the retiring WAL's timing stats into the base counters so
	// Perf() stays cumulative across rotations.
	if old.walw != nil {
		st := old.walw.Stats()
		d.perf.walIONsBase.Add(int64(st.IOTime))
		d.perf.walLockNsBase.Add(int64(st.LockTime))
		d.perf.walGroupBase.Add(st.GroupIOs)
	}
	d.imm = append(d.imm, old)
	d.memH = h
	d.wal = h.walw
	d.publishReadStateLocked()
	d.kick()
}

// kick nudges the background workers. Caller holds d.mu.
func (d *DB) kick() {
	select {
	case d.flushC <- struct{}{}:
	default:
	}
	select {
	case d.compactC <- struct{}{}:
	default:
	}
}

// ---------------------------------------------------------------------------
// Read path
// ---------------------------------------------------------------------------

// readState is the set of structures a read consults: the memtables, newest
// first, and the SSTable version under them. A published readState is never
// modified; a change to any part publishes a new one.
type readState struct {
	mem  *memtable.MemTable
	imms []*memtable.MemTable // newest first
	ver  *manifest.Version
}

// publishReadStateLocked rebuilds the read state from memH, imm and the
// current version and swaps it in. Caller holds d.mu, which orders the
// publishes: each one reads the fields as they are now, so the state readers
// load never goes backwards. It runs at the four places those fields change —
// installMemtable, rotateLocked, flushOne's pop of the flushed memtable and
// applyEdit's version install — and each of them publishes before its change
// can matter to a reader: a fresh memtable before any writer can pin it, a
// flushed table's version before the memtable that fed it is dropped.
func (d *DB) publishReadStateLocked() {
	rs := &readState{mem: d.memH.mem, ver: d.vs.Current()}
	if n := len(d.imm); n > 0 {
		rs.imms = make([]*memtable.MemTable, n)
		for i, h := range d.imm {
			rs.imms[n-1-i] = h.mem
		}
	}
	d.rs.Store(rs)
}

// readView returns the read state and sequence number of one read. The
// state is loaded first, the sequence second, so the sequence is never older
// than the state: every entry in the state's tables got its number before the
// table was built, hence before this load. The other order lets a flush land
// between the loads; flushes and compactions keep only the newest version of
// a key, the stale sequence hides exactly that version, and an acknowledged
// key reads as not found
// (TestReadsDuringRotationFlushCompaction). A write acknowledged before the
// read began is in a memtable published before it was acknowledged, or in the
// table that memtable became, so the state loaded here holds it.
func (d *DB) readView() (rs *readState, seq uint64) {
	rs = d.rs.Load()
	return rs, d.seq.Load()
}

// Get implements kv.Engine. It takes no engine-wide lock, and on a
// block-cache hit its one allocation is the value it returns.
func (d *DB) Get(key []byte) ([]byte, error) {
	if d.closed.Load() {
		return nil, kv.ErrClosed
	}
	d.perf.gets.Add(1)
	if d.opts.ReadPerOpCost > 0 {
		time.Sleep(d.opts.ReadPerOpCost)
	}
	return d.getRetry(key)
}

// getRetry resolves key against the current read state. A concurrent
// compaction may delete a file that state references (this engine does not
// refcount versions, per its no-snapshots-across-compaction contract); the
// data has then moved to the compaction output, so retrying with a fresh
// state is both safe and sufficient. Every point lookup that reports
// os.ErrNotExist to its caller has been through here.
func (d *DB) getRetry(key []byte) ([]byte, error) {
	var lastErr error
	for attempt := 0; attempt < 4; attempt++ {
		rs, seq := d.readView()
		v, err := d.getAt(rs, seq, key)
		if !isStaleFileErr(err) {
			return v, err
		}
		lastErr = err
	}
	return nil, lastErr
}

// isStaleFileErr reports whether err means a version-referenced file was
// deleted underneath the reader by a concurrent compaction.
func isStaleFileErr(err error) bool {
	return err != nil && errors.Is(err, os.ErrNotExist)
}

// getAt resolves key against rs at snapshot seq. The caller of Get owns what
// it is given, so a point lookup copies the winning value exactly once: here
// for a memtable hit (a memtable hands back a slice of its skiplist entry),
// inside sstable.Reader.Find for a table hit (a pin on a cached block never
// leaves that package). Copying an empty value yields nil either way, and
// MultiGet hands these results out as slots where nil means absent: a hit
// goes out through kv.Present.
func (d *DB) getAt(rs *readState, seq uint64, key []byte) ([]byte, error) {
	return d.lookup(rs, seq, key, false)
}

// probes is one lookup's walk through the tables: the key's bloom.Hash,
// whether it may read the device, and the tables it probed and skipped by
// their bloom filters, counted into Perf once the walk settles.
type probes struct {
	hash           uint32
	cachedOnly     bool
	tables, blooms int64
}

// lookup is getAt, or with cachedOnly its memory-only form: it then reads
// nothing, and a table that is not open or a data block that is not cached
// ends it with sstable.ErrWouldRead. Such a lookup counts no probes: the one
// that reads counts them. The key is hashed once, here: every memtable's
// filter and every table's bloom filter is asked with that hash.
func (d *DB) lookup(rs *readState, seq uint64, key []byte, cachedOnly bool) ([]byte, error) {
	h := bloom.Hash(key)
	v, found, deleted := rs.mem.Get(key, h, seq)
	for i := 0; !found && i < len(rs.imms); i++ {
		v, found, deleted = rs.imms[i].Get(key, h, seq)
	}
	if found {
		if deleted {
			return nil, kv.ErrNotFound
		}
		return kv.Present(append([]byte(nil), v...)), nil
	}
	var (
		hit sstable.Hit
		p   = probes{hash: h, cachedOnly: cachedOnly}
	)
	err := d.getFromTables(rs.ver, seq, key, &hit, &p)
	if err == sstable.ErrWouldRead {
		return nil, err
	}
	if p.tables > 0 {
		d.perf.tableProbes.Add(p.tables)
	}
	if p.blooms > 0 {
		d.perf.bloomSkips.Add(p.blooms)
	}
	if err != nil {
		return nil, err
	}
	if !hit.Found || hit.Deleted {
		return nil, kv.ErrNotFound
	}
	return kv.Present(hit.Val), nil
}

// probeTable looks key up in one table and keeps the result in best when it
// is newer than what best holds. The bloom filter is consulted here, once:
// a negative counts as a bloom skip, a positive as a table probe.
func (d *DB) probeTable(fm *manifest.FileMeta, key []byte, seq uint64, best *sstable.Hit, p *probes) error {
	if !fm.Overlaps(key, key) {
		return nil
	}
	// A quarantined file may hold the newest version of this key;
	// serving from the surviving files could resurrect stale data, so
	// the read fails loudly instead (DESIGN.md §12).
	if qerr := d.quarErr(fm.Num); qerr != nil {
		return qerr
	}
	var (
		r   *tableRef
		err error
	)
	if p.cachedOnly {
		if r = d.tcache.peek(fm.Num); r == nil {
			return sstable.ErrWouldRead
		}
	} else if r, err = d.tcache.get(fm.Num); err != nil {
		d.noteCorruption(err)
		return err
	}
	if !r.MayContainHash(p.hash) {
		p.blooms++
		return nil
	}
	p.tables++
	if p.cachedOnly {
		err = r.FindCached(key, seq, best)
	} else {
		err = r.Find(key, seq, best)
	}
	if err != nil && err != sstable.ErrWouldRead {
		d.noteCorruption(err)
	}
	return err
}

func (d *DB) getFromTables(ver *manifest.Version, seq uint64, key []byte, best *sstable.Hit, p *probes) error {
	// L0: newest file first; first hit wins.
	l0 := ver.Levels[0]
	for i := len(l0) - 1; i >= 0; i-- {
		if err := d.probeTable(l0[i], key, seq, best, p); err != nil {
			return err
		}
		if best.Found && d.opts.Style == Leveled {
			break // newest L0 file with the key wins
		}
	}
	for level := 1; level < manifest.NumLevels && !best.Found; level++ {
		files := ver.Levels[level]
		if d.opts.Style == Leveled {
			// Non-overlapping: binary search by largest user key.
			idx := sort.Search(len(files), func(i int) bool {
				return string(ikey.UserKey(files[i].Largest)) >= string(key)
			})
			if idx < len(files) {
				if err := d.probeTable(files[idx], key, seq, best, p); err != nil {
					return err
				}
			}
		} else {
			// Fragmented: any file whose range covers key may hold a
			// version; take the newest.
			for _, fm := range files {
				if err := d.probeTable(fm, key, seq, best, p); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// multiGetFanOut bounds the goroutines of MultiGet's device pass; a wave of
// that many keys shares one simulated software-path charge.
const multiGetFanOut = 16

// MultiGet implements kv.MultiGetter: it resolves all keys against one read
// snapshot. A key the memtables or blocks already in the block cache answer
// is resolved on the caller's goroutine; every other key goes whole to a
// device pass that overlaps the reads, at most multiGetFanOut at a time
// (RocksDB's multiget issues batched parallel reads internally — that
// internal parallelism is what OBM's read batching exploits, Figure 14).
// Overlapping lookups that never wait on the device would buy nothing but
// goroutine starts.
func (d *DB) MultiGet(keys [][]byte) ([][]byte, error) {
	if d.closed.Load() {
		return nil, kv.ErrClosed
	}
	if !d.opts.RocksDBFeatures {
		return nil, errors.New("lsm: MultiGet disabled by options")
	}
	d.perf.gets.Add(int64(len(keys)))
	out := make([][]byte, len(keys))
	if len(keys) == 1 {
		if c := d.opts.ReadPerOpCost; c > 0 {
			time.Sleep(c)
		}
		v, err := d.getRetry(keys[0])
		if err != nil && err != kv.ErrNotFound {
			return nil, err
		}
		out[0] = v
		return out, nil
	}
	if c := d.opts.ReadPerOpCost; c > 0 {
		// Batched lookups share the snapshot and batch their bloom/index
		// probing (RocksDB multiget): ~35% of the standalone software
		// path, overlapped across a wave of keys.
		waves := (len(keys) + multiGetFanOut - 1) / multiGetFanOut
		time.Sleep(time.Duration(waves) * c * 35 / 100)
	}
	rs, seq := d.readView()
	var small [multiGetFanOut]int
	reads := small[:0] // the keys left to the device pass
	for i, k := range keys {
		v, err := d.lookup(rs, seq, k, true)
		switch {
		case err == nil:
			out[i] = v
		case err == kv.ErrNotFound:
		case err == sstable.ErrWouldRead || isStaleFileErr(err):
			reads = append(reads, i)
		default:
			return nil, err
		}
	}
	if len(reads) > 0 {
		if err := d.readKeys(rs, seq, keys, out, slices.Clone(reads)); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// readKeys is MultiGet's device pass: it resolves keys[i] into out[i] for
// each i in idx against the caller's read view, on at most multiGetFanOut
// goroutines that each take the next key until none is left. A key whose
// file a compaction deleted is resolved against a fresh read state
// (getRetry). A lone key is read on the caller.
func (d *DB) readKeys(rs *readState, seq uint64, keys, out [][]byte, idx []int) error {
	read := func(i int) error {
		v, err := d.getAt(rs, seq, keys[i])
		if isStaleFileErr(err) {
			v, err = d.getRetry(keys[i])
		}
		switch err {
		case nil:
			out[i] = v
		case kv.ErrNotFound:
		default:
			return err
		}
		return nil
	}
	if len(idx) == 1 {
		return read(idx[0])
	}
	var (
		wg       sync.WaitGroup
		next     atomic.Int64
		errMu    sync.Mutex
		firstErr error
	)
	for range min(len(idx), multiGetFanOut) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := next.Add(1) - 1; j < int64(len(idx)); j = next.Add(1) - 1 {
				if err := read(idx[j]); err != nil {
					errMu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					errMu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// Caps reports optional capabilities for p2KVS's feature discovery.
func (d *DB) Caps() kv.Caps {
	return kv.Caps{BatchWrite: true, MultiGet: d.opts.RocksDBFeatures}
}

// ---------------------------------------------------------------------------
// Maintenance
// ---------------------------------------------------------------------------

// Flush implements kv.Engine: it forces the current memtable down to L0
// and waits for the flush queue to drain.
func (d *DB) Flush() error {
	if d.closed.Load() {
		return kv.ErrClosed
	}
	d.mu.Lock()
	if !d.memH.mem.Empty() {
		d.rotateLocked()
	}
	for len(d.imm) > 0 && d.g.Err() == nil && !d.closed.Load() {
		d.kick()
		d.cond.Wait()
	}
	err := d.g.Err()
	d.mu.Unlock()
	if err == nil && d.closed.Load() {
		return kv.ErrClosed
	}
	return err
}

// CompactAll drains pending flushes and compacts until no level is over
// budget (used by benchmarks to reach a steady state and by tests). The
// jobs run on the calling goroutine, interleaved with (and waiting out)
// any background compactions.
func (d *DB) CompactAll() error {
	if err := d.Flush(); err != nil {
		return err
	}
	for {
		d.mu.Lock()
		for len(d.compRunning) > 0 && d.g.Err() == nil && !d.closed.Load() {
			d.cond.Wait()
		}
		if err := d.g.Err(); err != nil {
			d.mu.Unlock()
			return err
		}
		if d.closed.Load() {
			d.mu.Unlock()
			return kv.ErrClosed
		}
		job := d.pickJobLocked()
		if job == nil {
			d.mu.Unlock()
			return nil
		}
		d.startJobLocked(job)
		d.mu.Unlock()
		err := d.execJob(job)
		d.finishJob(job)
		if err != nil {
			return err
		}
	}
}

// Metrics is the live structure sizes (Table 2 memory accounting);
// counters are in Perf, Health and CompactionStats.
type Metrics struct {
	MemTableBytes  int64
	ImmutableCount int
	LevelFiles     [manifest.NumLevels]int
	LevelBytes     [manifest.NumLevels]int64
	WALBytes       int64
}

// Metrics snapshots structure sizes.
func (d *DB) Metrics() Metrics {
	d.mu.Lock()
	defer d.mu.Unlock()
	m := Metrics{MemTableBytes: d.memH.mem.ReservedBytes(), ImmutableCount: len(d.imm)}
	for _, h := range d.imm {
		m.MemTableBytes += h.mem.ReservedBytes()
	}
	v := d.vs.Current()
	for i := range v.Levels {
		m.LevelFiles[i] = len(v.Levels[i])
		m.LevelBytes[i] = v.LevelSize(i)
	}
	if d.wal != nil {
		m.WALBytes = d.wal.Size()
	}
	return m
}

// Close implements kv.Engine.
func (d *DB) Close() error {
	if !d.closed.CompareAndSwap(false, true) {
		return nil
	}
	close(d.stopC)
	d.mu.Lock()
	d.cond.Broadcast()
	d.mu.Unlock()
	d.g.Close()
	d.bgWG.Wait()
	// Running compactions must drain before the manifest closes: they
	// write version edits through d.vs.
	d.compWG.Wait()
	// In-flight repair attempts use the table cache and FS; drain them
	// before tearing either down.
	d.repairWG.Wait()

	d.mu.Lock()
	defer d.mu.Unlock()
	var firstErr error
	if d.wal != nil {
		if err := d.wal.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	for _, h := range d.imm {
		if h.walw != nil {
			if err := h.walw.Close(); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	if err := d.vs.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	d.tcache.closeAll()
	return firstErr
}
