// Package ikey defines the internal key encoding shared by the memtable,
// SSTables and the LSM engine: userkey ++ 8-byte trailer (seq<<8 | kind),
// ordered by user key ascending then sequence number descending, so the
// newest version of a key is encountered first — the classic
// LevelDB/RocksDB scheme.
package ikey

import (
	"bytes"
	"encoding/binary"
	"fmt"
)

// Kind tags the operation a version represents.
type Kind uint8

// Version kinds. KindDelete sorts below KindSet at equal seq, which never
// happens in practice (seqs are unique); values chosen so larger trailer =
// newer.
const (
	KindDelete Kind = 0
	KindSet    Kind = 1
)

// MaxSeq is the largest representable sequence number (56 bits).
const MaxSeq = uint64(1)<<56 - 1

// TrailerLen is the encoded trailer size in bytes.
const TrailerLen = 8

// Trailer packs (seq, kind) into the word an internal key ends in; a larger
// trailer is a newer version.
func Trailer(seq uint64, kind Kind) uint64 { return seq<<8 | uint64(kind) }

// Split returns the user key and the trailer of an internal key.
func Split(ik []byte) (ukey []byte, trailer uint64) {
	n := len(ik) - TrailerLen
	return ik[:n], binary.LittleEndian.Uint64(ik[n:])
}

// Encode appends the internal key for (ukey, seq, kind) to dst.
func Encode(dst, ukey []byte, seq uint64, kind Kind) []byte {
	dst = append(dst, ukey...)
	return binary.LittleEndian.AppendUint64(dst, Trailer(seq, kind))
}

// Make allocates and returns the internal key for (ukey, seq, kind).
func Make(ukey []byte, seq uint64, kind Kind) []byte {
	return Encode(make([]byte, 0, len(ukey)+TrailerLen), ukey, seq, kind)
}

// UserKey returns the user-key prefix of an internal key.
func UserKey(ik []byte) []byte { return ik[:len(ik)-TrailerLen] }

// Decode splits an internal key into its parts.
func Decode(ik []byte) (ukey []byte, seq uint64, kind Kind, err error) {
	if len(ik) < TrailerLen {
		return nil, 0, 0, fmt.Errorf("ikey: too short (%d bytes)", len(ik))
	}
	t := binary.LittleEndian.Uint64(ik[len(ik)-TrailerLen:])
	return ik[:len(ik)-TrailerLen], t >> 8, Kind(t & 0xff), nil
}

// Compare orders internal keys: user key ascending, then trailer
// descending (newer versions first).
func Compare(a, b []byte) int {
	au, bu := UserKey(a), UserKey(b)
	if c := bytes.Compare(au, bu); c != 0 {
		return c
	}
	at := binary.LittleEndian.Uint64(a[len(a)-TrailerLen:])
	bt := binary.LittleEndian.Uint64(b[len(b)-TrailerLen:])
	switch {
	case at > bt:
		return -1
	case at < bt:
		return 1
	}
	return 0
}

// SeekKey returns the internal key that positions an iterator at the
// newest version of ukey visible at snapshot seq.
func SeekKey(ukey []byte, seq uint64) []byte {
	return Make(ukey, seq, KindSet)
}
