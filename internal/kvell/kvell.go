// Package kvell reimplements the design of KVell (Lepers et al., SOSP'19)
// as the paper's non-LSM baseline (§5.5): share-nothing worker threads,
// each owning an in-memory B+-tree index that maps keys to slots in
// size-classed slab files, in-place updates with no write-ahead log and no
// compaction, and a page cache in front of the slabs. Items are unsorted
// on disk, so scans walk the index and issue random reads — the cost
// profile Figures 20/21 contrast with p2KVS.
//
// Slot layout inside a slab: klen u16 | vlen u32 | crc u32 | key | value,
// padded to the class size, where crc is a CRC-32C over key||value
// (at-rest integrity, corruption.go). klen 0 marks a never-written slot and
// 0xFFFF a freed one (tombstone), which is how recovery distinguishes live
// items when it rebuilds the in-memory index by scanning the slabs (KVell's
// documented recovery strategy); the empty key is stored under klen 0xFFFE.
package kvell

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"p2kvs/internal/block"
	"p2kvs/internal/bloom"
	"p2kvs/internal/bptree"
	"p2kvs/internal/guard"
	"p2kvs/internal/hotcache"
	"p2kvs/internal/kv"
	"p2kvs/internal/vfs"
)

// Options configures a Store.
type Options struct {
	// FS hosts the slab files. Required.
	FS vfs.FS
	// Workers is the number of share-nothing partitions (KVell-4/8 in the
	// paper). Default 4.
	Workers int
	// CacheBytes is the per-store page-cache budget (the paper gives
	// KVell 4 GB; scale accordingly). Default 64 MiB.
	CacheBytes int64
	// PerOpCost models the per-request software path (index walk, slab
	// bookkeeping) in simulated time; zero for production use, set by
	// the scaled-time benchmarks.
	PerOpCost time.Duration
}

var slabClasses = []int{128, 256, 512, 1024, 2048, 4096}

// queueDepth bounds each worker's request queue.
const queueDepth = 64

// Slot klen values that are not key lengths: slab classes cap a key far
// below either.
const (
	freeMark     = 0xFFFF // a freed slot
	emptyKeyMark = 0xFFFE // a live slot holding the zero-length key
)

type loc struct {
	class int   // index into slabClasses
	slot  int64 // slot number within the slab
}

// Store is a KVell-style store.
type Store struct {
	opts    Options
	dir     string
	workers []*worker
	closed  bool
	// mu guards closed: submitters hold it shared while enqueueing so
	// Close cannot close a queue mid-send.
	mu sync.RWMutex

	// g holds the degraded state (health.go): while it is degraded writes
	// are rejected at submit and reads keep serving; it resumes the store
	// once space frees.
	g *guard.Guard
}

var _ kv.Engine = (*Store)(nil)

type request struct {
	op    kv.OpKind // OpPut / OpDelete; 0 = get, 3 = scan-collect
	key   []byte
	value []byte
	// scan support
	start []byte
	limit int
	// reply
	out   []kv.Pair
	err   error
	found bool
	done  chan struct{}
	// scrub (opScrub; limit carries the slab class): the bytes to verify
	// in, the bytes read out
	scrubBytes int64
}

const opGet kv.OpKind = 0
const opScan kv.OpKind = 3
const opScrub kv.OpKind = 4

type worker struct {
	id        int
	fs        vfs.FS
	dir       string
	queue     chan *request
	perOpCost time.Duration
	busyNs    atomic.Int64 // time spent handling requests (Metrics.BusyNs)
	// g is the store's guard: a space-exhaustion write failure degrades
	// it, a detected slot corruption is counted by it.
	g *guard.Guard

	// corrupt, when non-nil, poisons the worker: recovery found a slot it
	// could not trust, so the rebuilt index may be missing durably written
	// keys. Index misses, scans and writes fail with this error; index
	// hits keep serving (their slots verify on read). Written only during
	// open, before the worker goroutine starts.
	corrupt error

	index *bptree.Tree[loc]
	slabs [len6]*slab
	cache *hotcache.Cache // the page cache, at item granularity
	wg    sync.WaitGroup
}

// len6 keeps the slab array sized to the class table.
const len6 = 6

type slab struct {
	f        vfs.File
	slotSize int64
	nslots   int64
	free     []int64
}

// Open opens (creating or recovering) a store at dir.
func Open(dir string, opts Options) (*Store, error) {
	if opts.FS == nil {
		return nil, errors.New("kvell: Options.FS is required")
	}
	if opts.Workers <= 0 {
		opts.Workers = 4
	}
	if opts.CacheBytes <= 0 {
		opts.CacheBytes = 64 << 20
	}
	if err := opts.FS.MkdirAll(dir); err != nil {
		return nil, err
	}
	s := &Store{opts: opts, dir: dir}
	s.g = guard.New("kvell", opts.FS, dir, nil, s.Resume, 0, 0)
	for i := 0; i < opts.Workers; i++ {
		w := &worker{
			id:        i,
			fs:        opts.FS,
			dir:       fmt.Sprintf("%s/w%02d", dir, i),
			queue:     make(chan *request, queueDepth),
			index:     bptree.New[loc](),
			cache:     hotcache.New(opts.CacheBytes / int64(opts.Workers)),
			perOpCost: opts.PerOpCost,
			g:         s.g,
		}
		if err := w.open(); err != nil {
			return nil, err
		}
		w.wg.Add(1)
		go w.loop()
		s.workers = append(s.workers, w)
		if w.corrupt != nil {
			// One poisoned partition ≈ one quarantined slab set; the store
			// is read-only until it is restored (Resume does not lift it).
			s.g.Quarantined.Add(1)
			s.g.Degrade("integrity check", w.corrupt)
		}
	}
	// A restored backup image materializes as a SNAPSHOT file (see
	// checkpoint.go); replay it through the normal write path.
	if opts.FS.Exists(dir + "/" + snapshotName) {
		if err := s.replaySnapshot(); err != nil {
			s.Close()
			return nil, err
		}
	}
	return s, nil
}

func (w *worker) slabName(class int) string {
	return fmt.Sprintf("%s/slab-%d.dat", w.dir, slabClasses[class])
}

// open creates or recovers the worker's slabs, rebuilding the in-memory
// index by scanning every slot (KVell's recovery path).
func (w *worker) open() error {
	if err := w.fs.MkdirAll(w.dir); err != nil {
		return err
	}
	marker := w.dir + "/" + formatName
	marked := w.fs.Exists(marker)
	for class := range slabClasses {
		name := w.slabName(class)
		var f vfs.File
		var err error
		if w.fs.Exists(name) {
			f, err = w.fs.Open(name)
		} else {
			f, err = w.fs.Create(name)
		}
		if err != nil {
			return err
		}
		sl := &slab{f: f, slotSize: int64(slabClasses[class])}
		size, err := f.Size()
		if err != nil {
			return err
		}
		if size > 0 && !marked {
			return w.errNoFormat()
		}
		sl.nslots = size / sl.slotSize
		// Rebuild the index by streaming the slab (KVell's recovery path
		// does not issue one IO per slot).
		if _, err := sl.slots(sl.nslots, func(slot int64, rec []byte) {
			if _, live := slotKeyLen(rec); !live {
				sl.free = append(sl.free, slot)
				return
			}
			kl, _, err := w.verifySlot(rec, class, slot)
			if err != nil {
				// A slot the scan cannot trust may hide a durably written
				// key: poison the worker (misses/scans/writes fail) and
				// leave the slot in place — not indexed, not freed — so
				// the evidence survives until a restore.
				if w.corrupt == nil {
					w.corrupt = err
				}
				w.g.NoteCorruption(err)
				return
			}
			w.index.Set(append([]byte(nil), rec[slotHdr:slotHdr+kl]...), loc{class: class, slot: slot})
		}); err != nil {
			return err
		}
		w.slabs[class] = sl
	}
	if !marked {
		return vfs.WriteFileAtomic(w.fs, marker, []byte(formatV2))
	}
	return nil
}

// slots reads the first n slots of sl in chunks of 512 and calls fn with
// each slot's number and image, returning the bytes read before any error.
func (sl *slab) slots(n int64, fn func(slot int64, rec []byte)) (int64, error) {
	const chunkSlots = 512
	buf := make([]byte, sl.slotSize*min(n, chunkSlots))
	var read int64
	for base := int64(0); base < n; base += chunkSlots {
		chunk := buf[:min(n-base, chunkSlots)*sl.slotSize]
		if _, err := sl.f.ReadAt(chunk, base*sl.slotSize); err != nil {
			return read, err
		}
		read += int64(len(chunk))
		for i := int64(0); i*sl.slotSize < int64(len(chunk)); i++ {
			fn(base+i, chunk[i*sl.slotSize:(i+1)*sl.slotSize])
		}
	}
	return read, nil
}

func classFor(need int) (int, error) {
	for i, c := range slabClasses {
		if need <= c {
			return i, nil
		}
	}
	return 0, fmt.Errorf("kvell: item of %d bytes exceeds largest slab class %d", need, slabClasses[len(slabClasses)-1])
}

// loop is the worker's single thread: all index and slab access is
// unsynchronized because only this goroutine touches them (KVell's
// share-nothing concurrency model).
func (w *worker) loop() {
	defer w.wg.Done()
	for req := range w.queue {
		start := time.Now()
		w.handle(req)
		w.busyNs.Add(int64(time.Since(start)))
		close(req.done)
	}
}

func (w *worker) handle(req *request) {
	if w.perOpCost > 0 {
		time.Sleep(w.perOpCost)
	}
	switch req.op {
	case opGet:
		req.value, req.found, req.err = w.get(req.key)
	case kv.OpPut, kv.OpDelete:
		if w.corrupt != nil {
			// Read-only-minus: appending to a partition whose recovered
			// index may be missing keys only widens the blast radius.
			req.err = &kv.DegradedError{Engine: "kvell", Job: "integrity check", Cause: w.corrupt}
			return
		}
		if req.op == kv.OpPut {
			req.err = w.put(req.key, req.value)
		} else {
			req.err = w.delete(req.key)
		}
		if req.err != nil && vfs.IsNoSpace(req.err) {
			w.g.Degrade("slab write", req.err)
		}
	case opScan:
		req.out, req.err = w.scan(req.start, req.limit)
	case opScrub:
		req.scrubBytes, req.err = w.scrubSlab(req.limit, req.scrubBytes)
	}
}

func (w *worker) get(key []byte) ([]byte, bool, error) {
	l, ok := w.index.Get(key)
	if !ok {
		if w.corrupt != nil {
			// The rebuilt index cannot prove absence: the key may live in
			// the corrupt slot recovery refused to trust.
			return nil, false, w.corrupt
		}
		return nil, false, nil
	}
	if v, _, ok := w.cache.Get(key); ok {
		return v, true, nil
	}
	ticket := w.cache.Snapshot(key)
	v, err := w.readSlot(l, key)
	if err != nil {
		return nil, false, err
	}
	w.cache.Fill(key, v, false, ticket)
	return v, true, nil
}

func (w *worker) readSlot(l loc, key []byte) ([]byte, error) {
	sl := w.slabs[l.class]
	buf := make([]byte, sl.slotSize)
	if _, err := sl.f.ReadAt(buf, l.slot*sl.slotSize); err != nil {
		return nil, err
	}
	if _, live := slotKeyLen(buf); !live {
		err := w.corruptSlotErr(l.class, l.slot, "kvell: indexed slot marked free on disk")
		w.g.NoteCorruption(err)
		return nil, err
	}
	klen, vlen, err := w.verifySlot(buf, l.class, l.slot)
	if err != nil {
		w.g.NoteCorruption(err)
		return nil, err
	}
	if key != nil && !bytes.Equal(buf[slotHdr:slotHdr+klen], key) {
		err := w.corruptSlotErr(l.class, l.slot, "kvell: index/slot key mismatch")
		w.g.NoteCorruption(err)
		return nil, err
	}
	return append([]byte(nil), buf[slotHdr+klen:slotHdr+klen+vlen]...), nil
}

func (w *worker) put(key, value []byte) error {
	need := slotHdr + len(key) + len(value)
	class, err := classFor(need)
	if err != nil {
		return err
	}
	old, existed := w.index.Get(key)

	var slot int64
	sl := w.slabs[class]
	switch {
	case existed && old.class == class:
		// In-place update — KVell's headline write path: one random IO,
		// no log, no compaction.
		slot = old.slot
	case len(sl.free) > 0:
		slot = sl.free[len(sl.free)-1]
		sl.free = sl.free[:len(sl.free)-1]
	default:
		slot = sl.nslots
		sl.nslots++
	}

	buf := make([]byte, sl.slotSize)
	klen := uint16(len(key))
	if klen == 0 {
		klen = emptyKeyMark
	}
	binary.LittleEndian.PutUint16(buf, klen)
	binary.LittleEndian.PutUint32(buf[2:], uint32(len(value)))
	copy(buf[slotHdr:], key)
	copy(buf[slotHdr+len(key):], value)
	binary.LittleEndian.PutUint32(buf[6:], block.Checksum(buf[slotHdr:slotHdr+len(key)+len(value)]))
	if _, err := sl.f.WriteAt(buf, slot*sl.slotSize); err != nil {
		return err
	}
	if existed && old.class != class {
		if err := w.freeSlot(old); err != nil {
			return err
		}
	}
	w.index.Set(key, loc{class: class, slot: slot})
	// Write-allocate: the new value goes in whether or not the key was
	// resident.
	w.cache.Update(kv.BatchOp{Kind: kv.OpPut, Key: key, Value: value}, false)
	w.cache.Fill(key, value, false, w.cache.Snapshot(key))
	return nil
}

func (w *worker) freeSlot(l loc) error {
	sl := w.slabs[l.class]
	var hdr [2]byte
	binary.LittleEndian.PutUint16(hdr[:], freeMark)
	if _, err := sl.f.WriteAt(hdr[:], l.slot*sl.slotSize); err != nil {
		return err
	}
	sl.free = append(sl.free, l.slot)
	return nil
}

func (w *worker) delete(key []byte) error {
	l, ok := w.index.Get(key)
	if !ok {
		return nil
	}
	if err := w.freeSlot(l); err != nil {
		return err
	}
	w.index.Delete(key)
	w.cache.Update(kv.BatchOp{Kind: kv.OpDelete, Key: key}, true)
	return nil
}

// scan returns up to limit (key, value) pairs with key >= start from this
// worker's partition. Values are fetched with random reads — the reason
// KVell scans underperform LSM scans (workload E, Figure 20).
func (w *worker) scan(start []byte, limit int) ([]kv.Pair, error) {
	if w.corrupt != nil {
		// A poisoned index cannot prove scan completeness.
		return nil, w.corrupt
	}
	var out []kv.Pair
	var scanErr error
	w.index.Ascend(start, func(k []byte, l loc) bool {
		v, err := w.readSlot(l, k)
		if err != nil {
			scanErr = err
			return false
		}
		out = append(out, kv.Pair{Key: append([]byte(nil), k...), Value: v})
		return len(out) < limit
	})
	return out, scanErr
}

// ---------------------------------------------------------------------------
// Store API
// ---------------------------------------------------------------------------

func (s *Store) pick(key []byte) *worker {
	return s.workers[int(bloom.Hash(key))%len(s.workers)]
}

func (s *Store) submit(w *worker, req *request) error {
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return kv.ErrClosed
	}
	if req.op == kv.OpPut || req.op == kv.OpDelete {
		// Degraded: reject writes fast, keep serving reads.
		if err := s.g.Err(); err != nil {
			s.mu.RUnlock()
			return err
		}
	}
	req.done = make(chan struct{})
	w.queue <- req
	s.mu.RUnlock()
	<-req.done
	return req.err
}

// Put implements kv.Engine.
func (s *Store) Put(key, value []byte) error {
	return s.submit(s.pick(key), &request{op: kv.OpPut, key: key, value: value})
}

// Get implements kv.Engine.
func (s *Store) Get(key []byte) ([]byte, error) {
	req := &request{op: opGet, key: key}
	if err := s.submit(s.pick(key), req); err != nil {
		return nil, err
	}
	if !req.found {
		return nil, kv.ErrNotFound
	}
	return req.value, nil
}

// Delete implements kv.Engine.
func (s *Store) Delete(key []byte) error {
	return s.submit(s.pick(key), &request{op: kv.OpDelete, key: key})
}

// Scan returns up to limit pairs with key >= start across all partitions,
// globally sorted. Each partition is asked for limit items (the key
// distribution across partitions is unknown a priori — the same
// over-read p2KVS's parallel SCAN performs, §4.4).
func (s *Store) Scan(start []byte, limit int) ([]kv.Pair, error) {
	reqs := make([]*request, len(s.workers))
	var wg sync.WaitGroup
	for i, w := range s.workers {
		reqs[i] = &request{op: opScan, start: start, limit: limit}
		wg.Add(1)
		go func(w *worker, r *request) {
			defer wg.Done()
			r.errOnce(s.submit(w, r))
		}(w, reqs[i])
	}
	wg.Wait()
	var all []kv.Pair
	for _, r := range reqs {
		if r.err != nil {
			return nil, r.err
		}
		all = append(all, r.out...)
	}
	sort.Slice(all, func(i, j int) bool { return bytes.Compare(all[i].Key, all[j].Key) < 0 })
	if len(all) > limit {
		all = all[:limit]
	}
	return all, nil
}

func (r *request) errOnce(err error) {
	if r.err == nil {
		r.err = err
	}
}

// NewIterator implements kv.Engine by snapshotting the merged key set.
// KVell has no ordered on-disk layout, so a full iterator is inherently a
// scan of the in-memory indexes; values are fetched lazily per key.
func (s *Store) NewIterator() (kv.Iterator, error) {
	pairs, err := s.Scan(nil, 1<<31-1)
	if err != nil {
		return nil, err
	}
	return kv.NewSliceIter(pairs), nil
}

// Flush implements kv.Engine: syncs every slab. Like submit it holds mu
// shared, so Close cannot close the slab files under the walk.
func (s *Store) Flush() error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return kv.ErrClosed
	}
	for _, w := range s.workers {
		for _, sl := range w.slabs {
			if sl == nil {
				continue
			}
			if err := sl.f.Sync(); err != nil {
				if vfs.IsNoSpace(err) {
					s.g.Degrade("slab sync", err)
				}
				return err
			}
		}
	}
	return nil
}

// Caps reports no batch capabilities (KVell's API is per-request; its
// parallelism is internal).
func (s *Store) Caps() kv.Caps { return kv.Caps{} }

// Metrics reports memory accounting (Figure 21b): in-memory indexes plus
// page cache; and the workers' summed busy time, over which Figure 21d's
// per-core utilization is computed.
type Metrics struct {
	IndexBytes int64
	CacheBytes int64
	Keys       int
	BusyNs     int64
}

// Metrics snapshots the store. Approximate: indexes are read without
// pausing workers.
func (s *Store) Metrics() Metrics {
	var m Metrics
	for _, w := range s.workers {
		m.IndexBytes += w.index.ApproxBytes()
		m.CacheBytes += w.cache.Stats().CacheBytes
		m.Keys += w.index.Len()
		m.BusyNs += w.busyNs.Load()
	}
	return m
}

// Close implements kv.Engine.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	s.g.Close()
	for _, w := range s.workers {
		close(w.queue)
		w.wg.Wait()
		for _, sl := range w.slabs {
			if sl != nil {
				sl.f.Sync()
				sl.f.Close()
			}
		}
	}
	return nil
}
