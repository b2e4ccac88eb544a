// Package checkpoint defines the on-disk format of a store-wide backup
// set: a directory holding per-worker engine images plus a top-level
// CHECKPOINT manifest that records the store shape (worker count,
// partitioner, engine), the GSN watermark the barrier captured, and a
// checksum for every file in the image. The manifest is the commit record
// of a checkpoint — it is written last, through a temporary name, so a
// crashed checkpoint leaves either the previous manifest (still wholly
// valid: later checkpoints never modify files an earlier manifest
// references) or no manifest at all, never a partial image that parses.
package checkpoint

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"strconv"
	"strings"

	"p2kvs/internal/vfs"
)

// ManifestName is the manifest's file name inside a backup directory.
const ManifestName = "CHECKPOINT"

const magic = "p2kvs-checkpoint v1"

// ErrCorrupt is the base error of every damaged-backup failure — manifest
// parse errors and file checksum mismatches both match it: typed, never a
// panic, and never a silently partial manifest.
var ErrCorrupt = errors.New("checkpoint: corrupt backup")

// ErrNoManifest is returned by Load when the backup directory has no
// CHECKPOINT manifest (an empty or never-committed backup set).
var ErrNoManifest = errors.New("checkpoint: no CHECKPOINT manifest")

// ErrChecksumMismatch is returned by Restore when a file's content does
// not match the checksum the manifest recorded for it. It unwraps to
// ErrCorrupt.
var ErrChecksumMismatch = fmt.Errorf("%w: file checksum mismatch", ErrCorrupt)

// ParseError pinpoints a manifest parse failure. It unwraps to ErrCorrupt.
type ParseError struct {
	Line int // 1-based; 0 when the failure is not line-specific
	Msg  string
}

func (e *ParseError) Error() string {
	if e.Line > 0 {
		return fmt.Sprintf("checkpoint: corrupt manifest: line %d: %s", e.Line, e.Msg)
	}
	return "checkpoint: corrupt manifest: " + e.Msg
}

func (e *ParseError) Unwrap() error { return ErrCorrupt }

// File is one file of the backup image.
type File struct {
	// Worker is the owning worker's index, or -1 for store-level files
	// (the transaction log).
	Worker int
	// Path is the file's location relative to the backup root.
	Path string
	// Restore is where the file materializes on restore, relative to the
	// owning worker's engine directory (or the store's transaction
	// directory for Worker == -1).
	Restore string
	Size    int64
	CRC     uint32
}

// Manifest describes one committed checkpoint of a backup set.
type Manifest struct {
	// Seq numbers checkpoints within a backup set, starting at 1. Mutable
	// per-checkpoint files embed it in their names, which is what lets
	// checkpoint N+1 crash without invalidating checkpoint N.
	Seq         uint64
	Workers     int
	Engine      string
	Partitioner string
	// GSN is the store-wide Global Sequence Number watermark at the
	// barrier; WorkerGSN[i] is worker i's last applied GSN at the same
	// instant.
	GSN         uint64
	WorkerGSN   []uint64
	TakenUnixNs int64
	BarrierNs   int64
	// ReplID is the replication lineage ID of the store that took the
	// checkpoint, empty when replication was disabled. A replica restored
	// from this image partial-syncs from WorkerGSN only against a primary
	// still carrying this ID.
	ReplID string
	Files  []File
}

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Encode serializes the manifest, ending with a self-checksum line.
func (m *Manifest) Encode() []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "%s\n", magic)
	fmt.Fprintf(&b, "seq %d\n", m.Seq)
	fmt.Fprintf(&b, "workers %d\n", m.Workers)
	fmt.Fprintf(&b, "engine %s\n", m.Engine)
	fmt.Fprintf(&b, "partitioner %s\n", m.Partitioner)
	fmt.Fprintf(&b, "gsn %d\n", m.GSN)
	fmt.Fprintf(&b, "taken_unix_ns %d\n", m.TakenUnixNs)
	fmt.Fprintf(&b, "barrier_ns %d\n", m.BarrierNs)
	if m.ReplID != "" {
		fmt.Fprintf(&b, "replid %s\n", m.ReplID)
	}
	for i, g := range m.WorkerGSN {
		fmt.Fprintf(&b, "worker %d gsn %d\n", i, g)
	}
	for _, f := range m.Files {
		fmt.Fprintf(&b, "file %d %d %08x %s %s\n", f.Worker, f.Size, f.CRC, f.Path, f.Restore)
	}
	fmt.Fprintf(&b, "crc %08x\n", crc32.Checksum(b.Bytes(), crcTable))
	return b.Bytes()
}

// Parse decodes and validates a manifest. Any deviation — truncation, bit
// flips, unknown directives, out-of-range references — yields an error
// satisfying errors.Is(err, ErrCorrupt); Parse never panics.
func Parse(data []byte) (*Manifest, error) {
	if len(data) == 0 {
		return nil, &ParseError{Msg: "empty"}
	}
	if data[len(data)-1] != '\n' {
		return nil, &ParseError{Msg: "missing trailing newline"}
	}
	body := data[:len(data)-1]
	nl := bytes.LastIndexByte(body, '\n')
	lastLine := string(body[nl+1:]) // nl == -1 degenerates to the whole body
	covered := data[:nl+1]          // bytes the self-checksum covers

	wantCRC, ok := strings.CutPrefix(lastLine, "crc ")
	if !ok {
		return nil, &ParseError{Msg: "missing crc trailer"}
	}
	want, err := strconv.ParseUint(strings.TrimSpace(wantCRC), 16, 32)
	if err != nil {
		return nil, &ParseError{Msg: "malformed crc trailer"}
	}
	if got := crc32.Checksum(covered, crcTable); got != uint32(want) {
		return nil, &ParseError{Msg: fmt.Sprintf("crc mismatch: manifest says %08x, content is %08x", uint32(want), got)}
	}

	m := &Manifest{}
	var haveSeq, haveWorkers, haveEngine bool
	lines := strings.Split(string(covered), "\n")
	lines = lines[:len(lines)-1] // drop the empty tail after the final \n
	for i, line := range lines {
		lineNo := i + 1
		fail := func(msg string) (*Manifest, error) {
			return nil, &ParseError{Line: lineNo, Msg: msg}
		}
		if i == 0 {
			if line != magic {
				return fail("bad magic")
			}
			continue
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			return fail("blank line")
		}
		switch fields[0] {
		case "seq":
			if len(fields) != 2 {
				return fail("seq wants 1 field")
			}
			v, err := strconv.ParseUint(fields[1], 10, 64)
			if err != nil || v == 0 {
				return fail("bad seq")
			}
			m.Seq, haveSeq = v, true
		case "workers":
			if len(fields) != 2 {
				return fail("workers wants 1 field")
			}
			v, err := strconv.ParseUint(fields[1], 10, 16)
			if err != nil || v == 0 {
				return fail("bad workers count")
			}
			m.Workers, haveWorkers = int(v), true
		case "engine":
			if len(fields) != 2 {
				return fail("engine wants 1 field")
			}
			m.Engine, haveEngine = fields[1], true
		case "partitioner":
			if len(fields) != 2 {
				return fail("partitioner wants 1 field")
			}
			m.Partitioner = fields[1]
		case "gsn":
			if len(fields) != 2 {
				return fail("gsn wants 1 field")
			}
			v, err := strconv.ParseUint(fields[1], 10, 64)
			if err != nil {
				return fail("bad gsn")
			}
			m.GSN = v
		case "taken_unix_ns":
			if len(fields) != 2 {
				return fail("taken_unix_ns wants 1 field")
			}
			v, err := strconv.ParseInt(fields[1], 10, 64)
			if err != nil {
				return fail("bad taken_unix_ns")
			}
			m.TakenUnixNs = v
		case "barrier_ns":
			if len(fields) != 2 {
				return fail("barrier_ns wants 1 field")
			}
			v, err := strconv.ParseInt(fields[1], 10, 64)
			if err != nil || v < 0 {
				return fail("bad barrier_ns")
			}
			m.BarrierNs = v
		case "replid":
			if len(fields) != 2 {
				return fail("replid wants 1 field")
			}
			m.ReplID = fields[1]
		case "worker":
			if len(fields) != 4 || fields[2] != "gsn" {
				return fail("worker line wants: worker <i> gsn <g>")
			}
			idx, err := strconv.Atoi(fields[1])
			if err != nil || idx != len(m.WorkerGSN) {
				return fail("worker lines must be dense and in order")
			}
			g, err := strconv.ParseUint(fields[3], 10, 64)
			if err != nil {
				return fail("bad worker gsn")
			}
			m.WorkerGSN = append(m.WorkerGSN, g)
		case "file":
			if len(fields) != 6 {
				return fail("file line wants: file <worker> <size> <crc> <path> <restore>")
			}
			w, err := strconv.Atoi(fields[1])
			if err != nil || w < -1 {
				return fail("bad file worker index")
			}
			size, err := strconv.ParseInt(fields[2], 10, 64)
			if err != nil || size < 0 {
				return fail("bad file size")
			}
			crc, err := strconv.ParseUint(fields[3], 16, 32)
			if err != nil {
				return fail("bad file crc")
			}
			if !SafeRel(fields[4]) || !SafeRel(fields[5]) {
				return fail("unsafe file path")
			}
			m.Files = append(m.Files, File{
				Worker: w, Size: size, CRC: uint32(crc),
				Path: fields[4], Restore: fields[5],
			})
		case "crc":
			return fail("crc before end of manifest")
		default:
			return fail("unknown directive " + fields[0])
		}
	}
	if !haveSeq || !haveWorkers || !haveEngine {
		return nil, &ParseError{Msg: "missing required header (seq/workers/engine)"}
	}
	if len(m.WorkerGSN) != m.Workers {
		return nil, &ParseError{Msg: fmt.Sprintf("have %d worker gsn lines, want %d", len(m.WorkerGSN), m.Workers)}
	}
	for _, f := range m.Files {
		if f.Worker >= m.Workers {
			return nil, &ParseError{Msg: fmt.Sprintf("file %s references worker %d of %d", f.Path, f.Worker, m.Workers)}
		}
	}
	return m, nil
}

// SafeRel accepts only clean relative paths that cannot escape the backup
// root, an engine directory, or a replica's image staging directory.
func SafeRel(p string) bool {
	if p == "" || strings.HasPrefix(p, "/") {
		return false
	}
	for _, part := range strings.Split(p, "/") {
		if part == "" || part == "." || part == ".." {
			return false
		}
	}
	return true
}

// Load reads and parses the committed manifest of a backup set.
func Load(fs vfs.FS, dir string) (*Manifest, error) {
	name := dir + "/" + ManifestName
	if !fs.Exists(name) {
		return nil, ErrNoManifest
	}
	data, err := vfs.ReadFile(fs, name)
	if err != nil {
		return nil, err
	}
	return Parse(data)
}

// Write commits the manifest: temporary name, sync, atomic rename. After
// it returns, the checkpoint it describes is durable and complete.
func Write(fs vfs.FS, dir string, m *Manifest) error {
	return vfs.WriteFileAtomic(fs, dir+"/"+ManifestName, m.Encode())
}

// GC removes files in the backup set no committed manifest references:
// leftovers of a crashed checkpoint attempt, and files only referenced by
// superseded checkpoints. Call it after Write. Best effort — an error
// leaves garbage, never damages the image.
func GC(fs vfs.FS, dir string, m *Manifest) {
	referenced := map[string]bool{ManifestName: true}
	dirs := map[string]bool{"": true}
	for _, f := range m.Files {
		referenced[f.Path] = true
		if i := strings.LastIndexByte(f.Path, '/'); i >= 0 {
			dirs[f.Path[:i]] = true
		}
	}
	for i := 0; i < m.Workers; i++ {
		dirs[fmt.Sprintf("worker-%d", i)] = true
	}
	for d := range dirs {
		full := dir
		if d != "" {
			full = dir + "/" + d
		}
		names, err := fs.List(full)
		if err != nil {
			continue
		}
		for _, n := range names {
			rel := n
			if d != "" {
				rel = d + "/" + n
			}
			if !referenced[rel] {
				fs.Remove(dir + "/" + rel)
			}
		}
	}
}

// Restore materializes the backup image: it loads the manifest, verifies
// every file's size and checksum against it, and copies each file to the
// destination computed by place (worker index, or -1 for store-level,
// plus the manifest's restore-relative path). It fails — without having
// reported success for a partial image — on the first missing, truncated
// or corrupted file.
func Restore(srcFS vfs.FS, srcDir string, dstFS vfs.FS, place func(worker int, rel string) string) (*Manifest, error) {
	m, err := Load(srcFS, srcDir)
	if err != nil {
		return nil, err
	}
	for _, f := range m.Files {
		src := srcDir + "/" + f.Path
		crc, size, err := vfs.Checksum(srcFS, src)
		if err != nil {
			return nil, fmt.Errorf("checkpoint: reading %s: %w", f.Path, err)
		}
		if size != f.Size || crc != f.CRC {
			return nil, fmt.Errorf("%w: %s (size %d crc %08x, manifest says size %d crc %08x)",
				ErrChecksumMismatch, f.Path, size, crc, f.Size, f.CRC)
		}
		dst := place(f.Worker, f.Restore)
		if _, err := vfs.CopyFile(srcFS, src, dstFS, dst); err != nil {
			return nil, fmt.Errorf("checkpoint: restoring %s: %w", f.Path, err)
		}
	}
	return m, nil
}
