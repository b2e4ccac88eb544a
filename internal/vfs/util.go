package vfs

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"strconv"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ReadFile returns the full contents of name.
func ReadFile(fs FS, name string) ([]byte, error) {
	f, err := fs.Open(name)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	size, err := f.Size()
	if err != nil {
		return nil, err
	}
	buf := make([]byte, size)
	if size == 0 {
		return buf, nil
	}
	n, err := f.ReadAt(buf, 0)
	if err != nil && !(err == io.EOF && int64(n) == size) {
		return nil, err
	}
	return buf[:n], nil
}

// WriteFile creates name with the given contents and syncs it.
func WriteFile(fs FS, name string, data []byte) error {
	f, err := fs.Create(name)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// WriteFileAtomic replaces name with data: temporary name, sync, rename.
// A crash (or an error) at any point leaves name holding either its old
// contents or the new ones in full — the commit step of every small
// state record (TOPOLOGY, the replica state, a backup manifest, format
// markers) and of a verified repair image.
func WriteFileAtomic(fs FS, name string, data []byte) error {
	tmp := name + ".tmp"
	if err := WriteFile(fs, tmp, data); err != nil {
		fs.Remove(tmp)
		return err
	}
	if err := fs.Rename(tmp, name); err != nil {
		fs.Remove(tmp)
		return err
	}
	return nil
}

// ErrBadSeal reports a sealed record that failed Unseal: too short, a
// checksum mismatch, or JSON that does not decode exactly into the target.
var ErrBadSeal = errors.New("vfs: corrupt sealed record")

// Seal encodes v as a self-checking record, the one format of every small
// state file (TOPOLOGY, a backup set's CHECKPOINT, a replica's REPLSTATE):
// the CRC-32C of v's JSON as eight hex digits, a newline, then the JSON.
func Seal(v any) ([]byte, error) {
	payload, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	out := fmt.Appendf(make([]byte, 0, 9+len(payload)), "%08x\n", crc32.Checksum(payload, castagnoli))
	return append(out, payload...), nil
}

// Unseal verifies a record Seal wrote and decodes it into v. A damaged
// record, an unknown field or bytes after the JSON value fail with an
// error matching ErrBadSeal; v's contents are then unspecified.
func Unseal(data []byte, v any) error {
	if len(data) < 9 || data[8] != '\n' {
		return fmt.Errorf("%w: no checksum line (%d bytes)", ErrBadSeal, len(data))
	}
	want, err := strconv.ParseUint(string(data[:8]), 16, 32)
	if err != nil {
		return fmt.Errorf("%w: checksum %q", ErrBadSeal, data[:8])
	}
	payload := data[9:]
	if got := crc32.Checksum(payload, castagnoli); got != uint32(want) {
		return fmt.Errorf("%w: checksum mismatch (%08x != %08x)", ErrBadSeal, got, want)
	}
	dec := json.NewDecoder(bytes.NewReader(payload))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("%w: %v", ErrBadSeal, err)
	}
	if dec.InputOffset() != int64(len(payload)) {
		return fmt.Errorf("%w: %d bytes after the record", ErrBadSeal, int64(len(payload))-dec.InputOffset())
	}
	return nil
}

// CopyPrefix copies the first n bytes of src (on srcFS) to dst (on dstFS),
// creating dst through a temporary name so a partially written copy never
// shadows a complete one. It is the backbone of checkpointing: WAL files
// are append-only, so a [0, n) prefix captured at a known watermark is a
// stable, self-consistent image even while the source keeps growing.
func CopyPrefix(srcFS FS, src string, dstFS FS, dst string, n int64) error {
	in, err := srcFS.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	tmp := dst + ".tmp"
	out, err := dstFS.Create(tmp)
	if err != nil {
		return err
	}
	buf := make([]byte, 1<<16)
	var off int64
	for off < n {
		chunk := int64(len(buf))
		if n-off < chunk {
			chunk = n - off
		}
		rn, rerr := in.ReadAt(buf[:chunk], off)
		if rn > 0 {
			if _, werr := out.Write(buf[:rn]); werr != nil {
				out.Close()
				dstFS.Remove(tmp)
				return werr
			}
			off += int64(rn)
		}
		if rerr != nil {
			if rerr == io.EOF && off == n {
				break
			}
			out.Close()
			dstFS.Remove(tmp)
			return rerr
		}
	}
	if err := out.Sync(); err != nil {
		out.Close()
		dstFS.Remove(tmp)
		return err
	}
	if err := out.Close(); err != nil {
		dstFS.Remove(tmp)
		return err
	}
	return dstFS.Rename(tmp, dst)
}

// CopyFile copies all of src (on srcFS) to dst (on dstFS) via CopyPrefix,
// reporting the bytes copied.
func CopyFile(srcFS FS, src string, dstFS FS, dst string) (int64, error) {
	in, err := srcFS.Open(src)
	if err != nil {
		return 0, err
	}
	size, err := in.Size()
	in.Close()
	if err != nil {
		return 0, err
	}
	return size, CopyPrefix(srcFS, src, dstFS, dst, size)
}

// RemoveTree deletes dir and everything beneath it, tolerating an absent
// dir. It is how resharding resets an engine instance directory to a
// blank slate — before seeding a fresh worker, and when rolling back an
// aborted or crash-interrupted transition. FS.List only enumerates plain
// files, so tree removal needs per-implementation help: OSFS defers to
// os.RemoveAll, implementations exposing their own RemoveTree (MemFS's
// flat namespace makes it a prefix delete) are delegated to, wrappers
// exposing Inner() are unwrapped, and anything else gets a flat
// List+Remove (sufficient for the flat layouts engines use).
func RemoveTree(fs FS, dir string) error {
	for {
		switch t := fs.(type) {
		case OSFS:
			return os.RemoveAll(dir)
		case interface{ RemoveTree(string) error }:
			return t.RemoveTree(dir)
		case interface{ Inner() FS }:
			fs = t.Inner()
			continue
		}
		names, err := fs.List(dir)
		if err != nil {
			if !fs.Exists(dir) {
				return nil
			}
			return err
		}
		for _, n := range names {
			if err := fs.Remove(dir + "/" + n); err != nil {
				return err
			}
		}
		return nil
	}
}

// Checksum returns the CRC-32C of the file's full contents along with its
// size. Backup manifests record both for end-to-end restore verification.
func Checksum(fs FS, name string) (crc uint32, size int64, err error) {
	f, err := fs.Open(name)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	size, err = f.Size()
	if err != nil {
		return 0, 0, err
	}
	h := crc32.New(castagnoli)
	buf := make([]byte, 1<<16)
	var off int64
	for off < size {
		n, rerr := f.ReadAt(buf, off)
		if n > 0 {
			h.Write(buf[:n])
			off += int64(n)
		}
		if rerr != nil {
			if rerr == io.EOF && off == size {
				break
			}
			return 0, 0, rerr
		}
	}
	return h.Sum32(), size, nil
}
