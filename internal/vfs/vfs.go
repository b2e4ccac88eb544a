// Package vfs abstracts the filesystem under every storage engine in this
// repository. Engines never touch the os package directly; they receive a
// FS. This gives the benchmarks an in-memory filesystem (MemFS) wrapped by
// the device simulator (internal/device), and gives the tests
// fault-injection hooks (torn writes, lost syncs) to exercise recovery
// paths without killing the process.
//
// MemFS is the benchmarks' device, so its append is on every write path:
// a file is a list of chunks that double from 4 KiB to 256 KiB and then
// stay at 256 KiB, so an append copies only the bytes it writes and never
// the bytes already stored. Its crash model (MemFS.Crash) drops every
// file's unsynced suffix and fences each file under that file's own lock.
package vfs

import (
	"errors"
	"fmt"
	"io"
	"math/bits"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
)

// File is the subset of file behaviour the engines need. LSM engines use
// append-only Write; the KVell-style slab store updates in place via
// WriteAt.
type File interface {
	io.Writer
	io.Closer
	// ReadAt reads len(p) bytes at offset off.
	ReadAt(p []byte, off int64) (int, error)
	// WriteAt writes len(p) bytes at offset off, extending the file (with
	// zero fill) if needed.
	WriteAt(p []byte, off int64) (int, error)
	// Sync makes previous writes durable.
	Sync() error
	// Size returns the current file size in bytes.
	Size() (int64, error)
}

// FS is a filesystem namespace.
type FS interface {
	// Create truncates/creates a file for writing.
	Create(name string) (File, error)
	// Open opens an existing file for reading.
	Open(name string) (File, error)
	// Remove deletes a file. Removing an absent file is an error.
	Remove(name string) error
	// Rename atomically renames a file, replacing any existing target.
	Rename(oldname, newname string) error
	// List returns the names (not paths) of files whose directory is dir.
	List(dir string) ([]string, error)
	// MkdirAll ensures a directory path exists.
	MkdirAll(dir string) error
	// Exists reports whether the file exists.
	Exists(name string) bool
	// Link creates newname as a hard link to oldname: both names address
	// the same underlying bytes, and removing one leaves the other intact.
	// Linking over an existing newname is an error. Callers that may run
	// on filesystems without hard-link support should use LinkOrCopy.
	Link(oldname, newname string) error
}

// ErrNotExist mirrors os.ErrNotExist for the in-memory implementations.
var ErrNotExist = os.ErrNotExist

// ErrNoSpace is the space-exhaustion error reported by QuotaFS and by
// FaultFS rules with NoSpace set. Engines classify it with IsNoSpace, not
// by comparing against this sentinel, so that real ENOSPC from the host
// filesystem is handled identically.
var ErrNoSpace = errors.New("vfs: no space left on device")

// IsNoSpace reports whether err is a space-exhaustion error: ErrNoSpace
// (QuotaFS, FaultFS) or the operating system's ENOSPC surfaced through
// OSFS. This is the single classifier every engine uses to decide that a
// failed write is transient disk-full rather than a permanent fault.
func IsNoSpace(err error) bool {
	return errors.Is(err, ErrNoSpace) || errors.Is(err, syscall.ENOSPC)
}

// ProbeSpace reports whether dir currently accepts a small durable write:
// it creates a scratch file, writes and syncs a few hundred bytes, and
// removes it. The engine guard uses this to decide when space has
// been freed and the engine may auto-resume.
func ProbeSpace(fs FS, dir string) bool {
	name := dir + "/.space-probe"
	f, err := fs.Create(name)
	if err != nil {
		return false
	}
	var probe [512]byte
	_, werr := f.Write(probe[:])
	serr := f.Sync()
	f.Close()
	fs.Remove(name)
	return werr == nil && serr == nil
}

// ---------------------------------------------------------------------------
// MemFS
// ---------------------------------------------------------------------------

// MemFS is a thread-safe in-memory filesystem. It also carries the
// fault-injection state used by crash tests: after Crash() is called every
// file loses the bytes written since its last Sync, emulating a power
// failure with volatile page caches.
type MemFS struct {
	mu    sync.Mutex
	files map[string]*memFileData
	// frozen rejects every mutation — writes, syncs, renames, removals —
	// from Crash until Restart. A test's "crashed" store keeps running (a
	// real crash kills it), and nothing it does afterwards may reach what
	// recovery reads: a Sync that succeeded on bytes Crash just dropped
	// lets an engine believe a MANIFEST edit durable and delete files the
	// surviving MANIFEST still names. (Scripted faults live in FaultFS.)
	// Namespace operations read it under mu; Write, WriteAt and Sync read
	// it under the file's own lock, which Crash takes after setting it, so
	// a write either lands before Crash truncates the file or fails.
	frozen atomic.Bool
}

// memFileData is a file's bytes: chunk k has capacity chunkCap(k) (4 KiB
// doubling to 256 KiB, then 256 KiB each), every chunk but the last is
// full, and a chunk's length is the bytes it holds. Appending fills the
// tail and allocates the next chunk when it is full, so no byte is ever
// copied twice; an offset maps to its chunk by arithmetic (locate).
type memFileData struct {
	mu      sync.Mutex
	chunks  [][]byte
	size    int
	durable int // bytes guaranteed to survive Crash()
	// first backs chunks up to 16 of them (2.75 MiB, past a 2 MiB table),
	// so a table's appends allocate its chunks and nothing else.
	first [16][]byte
}

const (
	chunkMin     = 4 << 10
	chunkShifts  = 6 // chunk k holds chunkMin << min(k, chunkShifts) bytes
	chunkMax     = chunkMin << chunkShifts
	doublingEnds = chunkMax - chunkMin // chunks 0..5 hold the first 252 KiB
)

func chunkCap(k int) int { return chunkMin << min(k, chunkShifts) }

// locate returns the chunk holding byte off and off's position in it.
func locate(off int) (k, pos int) {
	if off < doublingEnds {
		k = bits.Len(uint(off/chunkMin+1)) - 1
		return k, off - chunkMin*(1<<k-1)
	}
	off -= doublingEnds
	return chunkShifts + off/chunkMax, off % chunkMax
}

// at returns the file's bytes from off (< size) to the end of off's chunk.
func (d *memFileData) at(off int) []byte {
	k, pos := locate(off)
	return d.chunks[k][pos:]
}

// extend appends n bytes to the file: those of p, or zeros when p is nil.
func (d *memFileData) extend(p []byte, n int) {
	if d.chunks == nil {
		d.chunks = d.first[:0]
	}
	for n > 0 {
		last := len(d.chunks) - 1
		if last < 0 || len(d.chunks[last]) == cap(d.chunks[last]) {
			last++
			d.chunks = append(d.chunks, make([]byte, 0, chunkCap(last)))
		}
		c := d.chunks[last]
		m := min(n, cap(c)-len(c))
		tail := c[len(c) : len(c)+m]
		if p == nil {
			clear(tail) // a chunk Crash shortened keeps old bytes past its length
		} else {
			copy(tail, p)
			p = p[m:]
		}
		d.chunks[last] = c[:len(c)+m]
		d.size += m
		n -= m
	}
}

// truncate drops every byte from n on, and every chunk left empty.
func (d *memFileData) truncate(n int) {
	if n >= d.size {
		return
	}
	k, pos := locate(n)
	keep := k
	if pos > 0 {
		d.chunks[k] = d.chunks[k][:pos]
		keep++
	}
	clear(d.chunks[keep:])
	d.chunks = d.chunks[:keep]
	d.size = n
}

// NewMem returns an empty in-memory filesystem.
func NewMem() *MemFS {
	return &MemFS{files: make(map[string]*memFileData)}
}

func clean(name string) string { return path.Clean(strings.ReplaceAll(name, "\\", "/")) }

var errCrashed = errors.New("vfs: filesystem crashed")

// Create implements FS.
func (fs *MemFS) Create(name string) (File, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.frozen.Load() {
		return nil, errCrashed
	}
	d := &memFileData{}
	fs.files[clean(name)] = d
	return &memFile{fs: fs, d: d, writable: true}, nil
}

// Open implements FS.
func (fs *MemFS) Open(name string) (File, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	d, ok := fs.files[clean(name)]
	if !ok {
		return nil, fmt.Errorf("vfs: open %s: %w", name, ErrNotExist)
	}
	return &memFile{fs: fs, d: d}, nil
}

// Remove implements FS.
func (fs *MemFS) Remove(name string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.frozen.Load() {
		return errCrashed
	}
	key := clean(name)
	if _, ok := fs.files[key]; !ok {
		return fmt.Errorf("vfs: remove %s: %w", name, ErrNotExist)
	}
	delete(fs.files, key)
	return nil
}

// RemoveTree deletes dir and everything beneath it. MemFS's namespace is
// a flat path map, so the whole subtree is the set of keys under the
// dir/ prefix; deleting an absent tree is a no-op.
func (fs *MemFS) RemoveTree(dir string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.frozen.Load() {
		return errCrashed
	}
	prefix := clean(dir)
	if prefix != "" && !strings.HasSuffix(prefix, "/") {
		prefix += "/"
	}
	for name := range fs.files {
		if strings.HasPrefix(name, prefix) {
			delete(fs.files, name)
		}
	}
	return nil
}

// Rename implements FS.
func (fs *MemFS) Rename(oldname, newname string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.frozen.Load() {
		// A crashed filesystem cannot mutate its namespace: letting a
		// rename through here would install e.g. a post-crash manifest.
		return errCrashed
	}
	od, ok := fs.files[clean(oldname)]
	if !ok {
		return fmt.Errorf("vfs: rename %s: %w", oldname, ErrNotExist)
	}
	fs.files[clean(newname)] = od
	delete(fs.files, clean(oldname))
	return nil
}

// List implements FS.
func (fs *MemFS) List(dir string) ([]string, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	prefix := clean(dir)
	if prefix != "" && !strings.HasSuffix(prefix, "/") {
		prefix += "/"
	}
	var names []string
	for name := range fs.files {
		if strings.HasPrefix(name, prefix) {
			rest := strings.TrimPrefix(name, prefix)
			if rest != "" && !strings.Contains(rest, "/") {
				names = append(names, rest)
			}
		}
	}
	sort.Strings(names)
	return names, nil
}

// MkdirAll implements FS. Directories are implicit in MemFS.
func (fs *MemFS) MkdirAll(string) error { return nil }

// Exists implements FS.
func (fs *MemFS) Exists(name string) bool {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	_, ok := fs.files[clean(name)]
	return ok
}

// Link implements FS. A MemFS hard link aliases the shared file data, so
// the durability watermark (and Crash truncation) is shared too — exactly
// the semantics of two directory entries over one inode.
func (fs *MemFS) Link(oldname, newname string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.frozen.Load() {
		return errCrashed
	}
	od, ok := fs.files[clean(oldname)]
	if !ok {
		return fmt.Errorf("vfs: link %s: %w", oldname, ErrNotExist)
	}
	if _, ok := fs.files[clean(newname)]; ok {
		return fmt.Errorf("vfs: link %s: %w", newname, os.ErrExist)
	}
	fs.files[clean(newname)] = od
	return nil
}

// Crash drops all non-durable bytes (everything written since each file's
// last successful Sync) and freezes the filesystem, emulating a power
// failure. Call Restart before reopening engines on it.
func (fs *MemFS) Crash() {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.frozen.Store(true)
	for _, d := range fs.files {
		d.mu.Lock()
		d.truncate(d.durable)
		d.mu.Unlock()
	}
}

// Restart unfreezes a crashed filesystem so recovery can run against the
// surviving (durable) state.
func (fs *MemFS) Restart() { fs.frozen.Store(false) }

type memFile struct {
	fs       *MemFS
	d        *memFileData
	writable bool
	closed   bool
}

// lockLive takes the file's lock for a mutation, or fails once Crash has
// begun: the check sits under the lock Crash takes to truncate the file.
func (f *memFile) lockLive() error {
	f.d.mu.Lock()
	if f.fs.frozen.Load() {
		f.d.mu.Unlock()
		return errCrashed
	}
	return nil
}

var errClosed = errors.New("vfs: write on closed file")

func (f *memFile) Write(p []byte) (int, error) {
	if f.closed {
		return 0, errClosed
	}
	if err := f.lockLive(); err != nil {
		return 0, err
	}
	f.d.extend(p, len(p))
	f.d.mu.Unlock()
	return len(p), nil
}

func (f *memFile) WriteAt(p []byte, off int64) (int, error) {
	if f.closed {
		return 0, errClosed
	}
	if err := f.lockLive(); err != nil {
		return 0, err
	}
	d, o := f.d, int(off)
	if o > d.size {
		d.extend(nil, o-d.size)
	}
	n := 0
	for n < len(p) && o+n < d.size {
		n += copy(d.at(o+n), p[n:])
	}
	d.extend(p[n:], len(p)-n)
	// In-place updates are not append-only: data already marked durable
	// may be overwritten; conservatively shrink the durable watermark.
	if o < d.durable {
		d.durable = o
	}
	d.mu.Unlock()
	return len(p), nil
}

func (f *memFile) ReadAt(p []byte, off int64) (int, error) {
	d := f.d
	d.mu.Lock()
	defer d.mu.Unlock()
	// Zero-length reads succeed regardless of offset, matching
	// os.File.ReadAt (pread with count 0 never reports EOF).
	if len(p) == 0 {
		return 0, nil
	}
	if off >= int64(d.size) {
		return 0, io.EOF
	}
	n, o := 0, int(off)
	for n < len(p) && o+n < d.size {
		n += copy(p[n:], d.at(o+n))
	}
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (f *memFile) Sync() error {
	if err := f.lockLive(); err != nil {
		return err
	}
	f.d.durable = f.d.size
	f.d.mu.Unlock()
	return nil
}

func (f *memFile) Size() (int64, error) {
	f.d.mu.Lock()
	defer f.d.mu.Unlock()
	return int64(f.d.size), nil
}

func (f *memFile) Close() error {
	f.closed = true
	return nil
}

// ---------------------------------------------------------------------------
// OSFS
// ---------------------------------------------------------------------------

// OSFS maps the FS interface onto the host filesystem. Used by the CLI and
// by anyone embedding the library against real storage.
type OSFS struct{}

// NewOS returns a host-filesystem implementation.
func NewOS() OSFS { return OSFS{} }

// Create implements FS.
func (OSFS) Create(name string) (File, error) {
	if err := os.MkdirAll(filepath.Dir(name), 0o755); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(name, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	return osFile{f}, nil
}

// Open implements FS.
func (OSFS) Open(name string) (File, error) {
	f, err := os.Open(name)
	if err != nil {
		return nil, err
	}
	return osFile{f}, nil
}

// Remove implements FS.
func (OSFS) Remove(name string) error { return os.Remove(name) }

// Rename implements FS.
func (OSFS) Rename(oldname, newname string) error { return os.Rename(oldname, newname) }

// List implements FS.
func (OSFS) List(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(ents))
	for _, e := range ents {
		if !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

// MkdirAll implements FS.
func (OSFS) MkdirAll(dir string) error { return os.MkdirAll(dir, 0o755) }

// Exists implements FS.
func (OSFS) Exists(name string) bool {
	_, err := os.Stat(name)
	return err == nil
}

// Link implements FS.
func (OSFS) Link(oldname, newname string) error {
	if err := os.MkdirAll(filepath.Dir(newname), 0o755); err != nil {
		return err
	}
	return os.Link(oldname, newname)
}

type osFile struct{ *os.File }

func (f osFile) Size() (int64, error) {
	st, err := f.Stat()
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}
