// Package manifest tracks the LSM-tree's on-disk structure — which
// SSTable lives on which level — via an append-only log of version edits,
// the LevelDB/RocksDB MANIFEST mechanism. Replaying the log on open
// rebuilds the level layout; every flush and compaction appends one edit.
package manifest

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync"

	"p2kvs/internal/ikey"
	"p2kvs/internal/vfs"
	"p2kvs/internal/wal"
)

// NumLevels is the LSM-tree depth (L0..L6), matching LevelDB defaults.
const NumLevels = 7

// FileMeta describes one SSTable.
type FileMeta struct {
	Num      uint64
	Size     int64
	Smallest []byte // internal keys
	Largest  []byte
	Entries  int
}

// Overlaps reports whether the file's key range intersects
// [smallestUkey, largestUkey] (user keys; nil bounds are open).
func (f *FileMeta) Overlaps(smallestUkey, largestUkey []byte) bool {
	fsm, flg := ikey.UserKey(f.Smallest), ikey.UserKey(f.Largest)
	if largestUkey != nil && string(fsm) > string(largestUkey) {
		return false
	}
	if smallestUkey != nil && string(flg) < string(smallestUkey) {
		return false
	}
	return true
}

// AddedFile is a (level, file) pair in a VersionEdit.
type AddedFile struct {
	Level int
	Meta  FileMeta
}

// DeletedFile identifies a file removed from a level.
type DeletedFile struct {
	Level int
	Num   uint64
}

// VersionEdit is one atomic mutation of the tree structure.
type VersionEdit struct {
	HasLogNum   bool
	LogNum      uint64
	HasNextFile bool
	NextFile    uint64
	HasLastSeq  bool
	LastSeq     uint64
	Added       []AddedFile
	Deleted     []DeletedFile
}

// Edit record tags.
const (
	tagLogNum = iota + 1
	tagNextFile
	tagLastSeq
	tagAddFile
	tagDeleteFile
)

func putBytes(dst, b []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

// encode serializes the edit into a buffer sized for it once.
func (e *VersionEdit) encode() []byte {
	n := 6 * binary.MaxVarintLen64
	for _, a := range e.Added {
		n += 7*binary.MaxVarintLen64 + len(a.Meta.Smallest) + len(a.Meta.Largest)
	}
	b := make([]byte, 0, n+3*binary.MaxVarintLen64*len(e.Deleted))
	if e.HasLogNum {
		b = binary.AppendUvarint(b, tagLogNum)
		b = binary.AppendUvarint(b, e.LogNum)
	}
	if e.HasNextFile {
		b = binary.AppendUvarint(b, tagNextFile)
		b = binary.AppendUvarint(b, e.NextFile)
	}
	if e.HasLastSeq {
		b = binary.AppendUvarint(b, tagLastSeq)
		b = binary.AppendUvarint(b, e.LastSeq)
	}
	for _, a := range e.Added {
		b = binary.AppendUvarint(b, tagAddFile)
		b = binary.AppendUvarint(b, uint64(a.Level))
		b = binary.AppendUvarint(b, a.Meta.Num)
		b = binary.AppendUvarint(b, uint64(a.Meta.Size))
		b = binary.AppendUvarint(b, uint64(a.Meta.Entries))
		b = putBytes(b, a.Meta.Smallest)
		b = putBytes(b, a.Meta.Largest)
	}
	for _, d := range e.Deleted {
		b = binary.AppendUvarint(b, tagDeleteFile)
		b = binary.AppendUvarint(b, uint64(d.Level))
		b = binary.AppendUvarint(b, d.Num)
	}
	return b
}

type decoder struct {
	b   []byte
	err error
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.err = fmt.Errorf("manifest: truncated edit")
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *decoder) bytes() []byte {
	n := int(d.uvarint())
	if d.err != nil {
		return nil
	}
	if n > len(d.b) {
		d.err = fmt.Errorf("manifest: truncated bytes field")
		return nil
	}
	v := append([]byte(nil), d.b[:n]...)
	d.b = d.b[n:]
	return v
}

// DecodeEdit parses an encoded edit.
func DecodeEdit(b []byte) (*VersionEdit, error) {
	e := &VersionEdit{}
	d := &decoder{b: b}
	for len(d.b) > 0 && d.err == nil {
		switch tag := d.uvarint(); tag {
		case tagLogNum:
			e.HasLogNum, e.LogNum = true, d.uvarint()
		case tagNextFile:
			e.HasNextFile, e.NextFile = true, d.uvarint()
		case tagLastSeq:
			e.HasLastSeq, e.LastSeq = true, d.uvarint()
		case tagAddFile:
			var a AddedFile
			a.Level = int(d.uvarint())
			a.Meta.Num = d.uvarint()
			a.Meta.Size = int64(d.uvarint())
			a.Meta.Entries = int(d.uvarint())
			a.Meta.Smallest = d.bytes()
			a.Meta.Largest = d.bytes()
			e.Added = append(e.Added, a)
		case tagDeleteFile:
			var del DeletedFile
			del.Level = int(d.uvarint())
			del.Num = d.uvarint()
			e.Deleted = append(e.Deleted, del)
		default:
			return nil, fmt.Errorf("manifest: unknown tag %d", tag)
		}
	}
	if d.err != nil {
		return nil, d.err
	}
	return e, nil
}

// Version is an immutable snapshot of the level layout. Levels >= 1 hold
// files sorted by smallest key with disjoint user-key ranges; L0 files may
// overlap and are ordered newest-last (by file number).
type Version struct {
	Levels [NumLevels][]*FileMeta
}

func (v *Version) clone() *Version {
	nv := &Version{}
	for i := range v.Levels {
		nv.Levels[i] = append([]*FileMeta(nil), v.Levels[i]...)
	}
	return nv
}

// LevelSize sums file sizes on a level.
func (v *Version) LevelSize(level int) int64 {
	var s int64
	for _, f := range v.Levels[level] {
		s += f.Size
	}
	return s
}

// Set owns the current Version and the MANIFEST log.
type Set struct {
	mu      sync.Mutex
	fs      vfs.FS
	dir     string
	log     *wal.Writer
	current *Version

	LogNum   uint64
	NextFile uint64
	LastSeq  uint64
}

// Open loads (or creates) the version set in dir.
func Open(fs vfs.FS, dir string) (*Set, error) {
	s := &Set{fs: fs, dir: dir, current: &Version{}, NextFile: 1}
	name := dir + "/MANIFEST"
	if fs.Exists(name) {
		recs, err := wal.ReadAll(fs, name)
		if err != nil {
			return nil, err
		}
		for _, r := range recs {
			edit, err := DecodeEdit(r.Payload)
			if err != nil {
				return nil, err
			}
			s.apply(edit)
		}
	}
	// Start a fresh manifest seeded with a snapshot of the replayed
	// state, then atomically swap it in.
	if err := s.rotateLocked(); err != nil {
		return nil, err
	}
	return s, nil
}

// rotateLocked rewrites the MANIFEST as one snapshot edit of the current
// in-memory state and atomically swaps it in. Writing to a temporary name
// first means a crash (or failure) mid-rewrite leaves the old MANIFEST
// intact. Callers must hold s.mu (or, in Open, have exclusive access).
func (s *Set) rotateLocked() error {
	name := s.dir + "/MANIFEST"
	log, err := Create(s.fs, name+".new", s.snapshotEdit())
	if err != nil {
		return err
	}
	if err := s.fs.Rename(name+".new", name); err != nil {
		log.Close()
		return err
	}
	if s.log != nil {
		// Best effort: the old log file has already been replaced in the
		// namespace, and may be tainted by the very failure that prompted
		// this rotation.
		s.log.Close()
	}
	s.log = log
	return nil
}

// Create writes a MANIFEST log at name whose first record is snap, a whole
// state as one edit, and returns the log open for the edits that follow.
// Each record is synced as it is appended.
func Create(fs vfs.FS, name string, snap *VersionEdit) (*wal.Writer, error) {
	f, err := fs.Create(name)
	if err != nil {
		return nil, err
	}
	log := wal.NewWriter(f, wal.Options{Policy: wal.PolicyCommit})
	if err := log.Append(0, snap.encode()); err != nil {
		log.Close()
		return nil, err
	}
	return log, nil
}

// Rotate rewrites the MANIFEST as a fresh snapshot of the current state,
// replacing the old log file. Recovery code calls it after a failed
// LogAndApply: the old log may carry a torn tail (stranding later edits
// behind an unreadable record) or a record of unknown durability (which a
// blind retry would double-apply at replay), so the only safe way to keep
// appending edits is to start from a clean snapshot.
func (s *Set) Rotate() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rotateLocked()
}

// SnapshotEdit returns the entire current state (log number, file-number
// allocator, last sequence, and every live file) as one edit, captured
// atomically. Checkpoints write it (Create) as the trimmed MANIFEST of a
// backup image.
func (s *Set) SnapshotEdit() *VersionEdit {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.snapshotEdit()
}

// snapshotEdit captures the entire current state as one edit.
func (s *Set) snapshotEdit() *VersionEdit {
	e := &VersionEdit{
		HasLogNum: true, LogNum: s.LogNum,
		HasNextFile: true, NextFile: s.NextFile,
		HasLastSeq: true, LastSeq: s.LastSeq,
	}
	for level, files := range s.current.Levels {
		for _, f := range files {
			e.Added = append(e.Added, AddedFile{Level: level, Meta: *f})
		}
	}
	return e
}

func (s *Set) apply(e *VersionEdit) {
	if e.HasLogNum {
		s.LogNum = e.LogNum
	}
	if e.HasNextFile && e.NextFile > s.NextFile {
		s.NextFile = e.NextFile
	}
	if e.HasLastSeq && e.LastSeq > s.LastSeq {
		s.LastSeq = e.LastSeq
	}
	if len(e.Added) == 0 && len(e.Deleted) == 0 {
		return
	}
	nv := s.current.clone()
	for _, d := range e.Deleted {
		files := nv.Levels[d.Level]
		for i, f := range files {
			if f.Num == d.Num {
				nv.Levels[d.Level] = append(append([]*FileMeta(nil), files[:i]...), files[i+1:]...)
				break
			}
		}
	}
	for _, a := range e.Added {
		meta := a.Meta
		nv.Levels[a.Level] = append(nv.Levels[a.Level], &meta)
	}
	for level := range nv.Levels {
		files := nv.Levels[level]
		if level == 0 {
			// L0: order by file number (age), newest last.
			sort.Slice(files, func(i, j int) bool { return files[i].Num < files[j].Num })
		} else {
			sort.Slice(files, func(i, j int) bool {
				return ikey.Compare(files[i].Smallest, files[j].Smallest) < 0
			})
		}
	}
	s.current = nv
}

// LogAndApply durably records the edit and applies it to the current
// version. A log that an earlier failed append tainted, and that the Rotate
// owed after it could not replace either, is replaced first: the edit must
// not be refused for a failure that was not its own.
func (s *Set) LogAndApply(e *VersionEdit) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.log.Tainted() {
		if err := s.rotateLocked(); err != nil {
			return err
		}
	}
	if err := s.log.Append(0, e.encode()); err != nil {
		return err
	}
	s.apply(e)
	return nil
}

// Current returns the current immutable version. Callers must not mutate.
func (s *Set) Current() *Version {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.current
}

// MarkFileNumUsed advances the file-number allocator past num. Recovery
// calls it for every file found on disk: allocations made by the crashed
// process may never have been persisted through an edit, and reusing such
// a number would truncate a surviving file (e.g. the live WAL).
func (s *Set) MarkFileNumUsed(num uint64) {
	s.mu.Lock()
	if num >= s.NextFile {
		s.NextFile = num + 1
	}
	s.mu.Unlock()
}

// NewFileNum allocates a file number.
func (s *Set) NewFileNum() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := s.NextFile
	s.NextFile++
	return n
}

// Close closes the MANIFEST log.
func (s *Set) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.log.Close()
}
