package main

import (
	"strconv"
	"strings"
	"sync/atomic"

	"p2kvs/internal/kv"
	"p2kvs/internal/lsm"
	"p2kvs/internal/vfs"
)

// fileClass tags a file by suffix: WAL segments are written on the request
// path, SSTables only by background flushes and compactions, the rest is
// metadata (MANIFEST, CURRENT, the transaction log).
type fileClass uint8

const (
	classWAL fileClass = iota
	classSST
	classMeta
	numClasses
)

func classOf(name string) fileClass {
	switch {
	case strings.HasSuffix(name, ".log"):
		return classWAL
	case strings.HasSuffix(name, ".sst"):
		return classSST
	}
	return classMeta
}

// shardOf maps a file to its counter shard: its worker instance's, or the
// shared one.
func shardOf(name string) int {
	if rest, ok := strings.CutPrefix(name, storeDir+"/inst-"); ok && len(rest) > 2 {
		if id, err := strconv.Atoi(rest[:2]); err == nil && id < numWorkers {
			return id
		}
	}
	return sharedShard
}

// fsCounters are the byte and call counts of one file class in one shard.
type fsCounters struct {
	readCalls, readBytes   atomic.Int64
	writeCalls, writeBytes atomic.Int64
	syncs                  atomic.Int64
	_                      [24]byte // one cache line each
}

// fsSnapshot is a plain copy of the counters of every class.
type fsSnapshot [numClasses]struct {
	readCalls, readBytes, writeCalls, writeBytes, syncs int64
}

func (a fsSnapshot) sub(b fsSnapshot) fsSnapshot {
	for c := range a {
		a[c].readCalls -= b[c].readCalls
		a[c].readBytes -= b[c].readBytes
		a[c].writeCalls -= b[c].writeCalls
		a[c].writeBytes -= b[c].writeBytes
		a[c].syncs -= b[c].syncs
	}
	return a
}

func (a fsSnapshot) total() (readCalls, readBytes, writeCalls, writeBytes, syncs int64) {
	for c := range a {
		readCalls += a[c].readCalls
		readBytes += a[c].readBytes
		writeCalls += a[c].writeCalls
		writeBytes += a[c].writeBytes
		syncs += a[c].syncs
	}
	return
}

// meteredFS decorates the filesystem under the engines. It always counts
// bytes and calls with atomics only, in traced and untraced runs alike, so
// write_amp costs the same on both sides of a comparison. With a tracer it
// also times every ReadAt, Write and Sync.
type meteredFS struct {
	vfs.FS
	tr  *tracer // nil in untraced runs
	cls [traceShards][numClasses]fsCounters
}

func newMeteredFS(inner vfs.FS, tr *tracer) *meteredFS {
	return &meteredFS{FS: inner, tr: tr}
}

func (m *meteredFS) snapshot() fsSnapshot {
	var s fsSnapshot
	for i := range m.cls {
		for c := range m.cls[i] {
			s[c].readCalls += m.cls[i][c].readCalls.Load()
			s[c].readBytes += m.cls[i][c].readBytes.Load()
			s[c].writeCalls += m.cls[i][c].writeCalls.Load()
			s[c].writeBytes += m.cls[i][c].writeBytes.Load()
			s[c].syncs += m.cls[i][c].syncs.Load()
		}
	}
	return s
}

func (m *meteredFS) wrap(name string, f vfs.File, err error) (vfs.File, error) {
	if err != nil {
		return nil, err
	}
	class, shard := classOf(name), shardOf(name)
	return &meteredFile{File: f, tr: m.tr, shard: shard, ctr: &m.cls[shard][class], bg: class == classSST}, nil
}

func (m *meteredFS) Create(name string) (vfs.File, error) {
	f, err := m.FS.Create(name)
	return m.wrap(name, f, err)
}

func (m *meteredFS) Open(name string) (vfs.File, error) {
	f, err := m.FS.Open(name)
	return m.wrap(name, f, err)
}

// liveBytes sums the sizes of the files in dirs.
func (m *meteredFS) liveBytes(dirs []string) (int64, error) {
	var total int64
	for _, dir := range dirs {
		names, err := m.FS.List(dir)
		if err != nil {
			return 0, err
		}
		for _, n := range names {
			f, err := m.FS.Open(dir + "/" + n)
			if err != nil {
				continue // removed by a background job since List
			}
			sz, err := f.Size()
			f.Close()
			if err != nil {
				return 0, err
			}
			total += sz
		}
	}
	return total, nil
}

type meteredFile struct {
	vfs.File
	tr    *tracer
	shard int
	ctr   *fsCounters
	// bg marks files only background jobs write (SSTables). Reads of them
	// come from requests and compactions alike; the suffix cannot tell.
	bg bool
}

func (f *meteredFile) Write(p []byte) (int, error) {
	f.ctr.writeCalls.Add(1)
	f.ctr.writeBytes.Add(int64(len(p)))
	if f.tr == nil {
		return f.File.Write(p)
	}
	t0 := nowNs()
	n, err := f.File.Write(p)
	f.tr.record(f.shard, spVfsWrite, f.bg, len(p), t0, nowNs())
	return n, err
}

func (f *meteredFile) WriteAt(p []byte, off int64) (int, error) {
	f.ctr.writeCalls.Add(1)
	f.ctr.writeBytes.Add(int64(len(p)))
	if f.tr == nil {
		return f.File.WriteAt(p, off)
	}
	t0 := nowNs()
	n, err := f.File.WriteAt(p, off)
	f.tr.record(f.shard, spVfsWrite, f.bg, len(p), t0, nowNs())
	return n, err
}

func (f *meteredFile) ReadAt(p []byte, off int64) (int, error) {
	f.ctr.readCalls.Add(1)
	f.ctr.readBytes.Add(int64(len(p)))
	if f.tr == nil {
		return f.File.ReadAt(p, off)
	}
	t0 := nowNs()
	n, err := f.File.ReadAt(p, off)
	f.tr.record(f.shard, spVfsReadAt, false, len(p), t0, nowNs())
	return n, err
}

func (f *meteredFile) Sync() error {
	f.ctr.syncs.Add(1)
	if f.tr == nil {
		return f.File.Sync()
	}
	t0 := nowNs()
	err := f.File.Sync()
	f.tr.record(f.shard, spVfsSync, f.bg, 0, t0, nowNs())
	return err
}

// tracedEngine decorates one worker's engine in traced runs. Embedding the
// concrete *lsm.DB forwards every optional capability the accessing layer
// probes for (kv.CapabilityReporter, kv.HealthReporter,
// kv.CompactionStatsReporter, checkpoints, scrub, resume) unchanged; only
// the request-path calls are timed.
type tracedEngine struct {
	*lsm.DB
	tr    *tracer
	shard int // the worker's id
}

var (
	_ kv.Engine                  = (*tracedEngine)(nil)
	_ kv.BatchWriter             = (*tracedEngine)(nil)
	_ kv.MultiGetter             = (*tracedEngine)(nil)
	_ kv.CapabilityReporter      = (*tracedEngine)(nil)
	_ kv.HealthReporter          = (*tracedEngine)(nil)
	_ kv.CompactionStatsReporter = (*tracedEngine)(nil)
)

func (e *tracedEngine) Get(key []byte) ([]byte, error) {
	t0 := nowNs()
	v, err := e.DB.Get(key)
	e.tr.record(e.shard, spEngineGet, false, 1, t0, nowNs())
	return v, err
}

func (e *tracedEngine) MultiGet(keys [][]byte) ([][]byte, error) {
	t0 := nowNs()
	v, err := e.DB.MultiGet(keys)
	e.tr.record(e.shard, spEngineMultiGet, false, len(keys), t0, nowNs())
	return v, err
}

func (e *tracedEngine) Put(key, value []byte) error {
	t0 := nowNs()
	err := e.DB.Put(key, value)
	e.tr.record(e.shard, spEngineWrite, false, 1, t0, nowNs())
	return err
}

func (e *tracedEngine) Delete(key []byte) error {
	t0 := nowNs()
	err := e.DB.Delete(key)
	e.tr.record(e.shard, spEngineWrite, false, 1, t0, nowNs())
	return err
}

func (e *tracedEngine) Write(b *kv.Batch) error {
	t0 := nowNs()
	err := e.DB.Write(b)
	e.tr.record(e.shard, spEngineWrite, false, b.Len(), t0, nowNs())
	return err
}

func (e *tracedEngine) WriteGSN(b *kv.Batch, gsn uint64) error {
	t0 := nowNs()
	err := e.DB.WriteGSN(b, gsn)
	e.tr.record(e.shard, spEngineWrite, false, b.Len(), t0, nowNs())
	return err
}
