package repl

import (
	"encoding/binary"
	"fmt"

	"p2kvs/internal/block"
	"p2kvs/internal/kv"
)

// Replica cursor state — the small file a replica persists so a process
// restart can resume the stream with a partial sync instead of a full
// one. It records the lineage (replid) the cursors are meaningful
// against plus the per-worker applied cursors, CRC-sealed so a torn
// write degrades to "no state" (→ full sync), never to a wrong cursor.
//
// The cursors are persisted only after the records they cover were
// applied, so they never run ahead of the replica's applies. Whether
// they can run ahead of the replica's *durable* data is the engine WAL
// policy's call: under SyncOnCommit the apply ack implies fsync, so a
// SIGKILL cannot leave persisted cursors pointing past durable state;
// under weaker policies a crash may lose the applied tail, and the
// resumed stream starts past it — the same durability trade the engine
// itself makes for local writes.

// ErrBadState reports a cursor state blob that failed validation.
var ErrBadState = fmt.Errorf("repl: corrupt cursor state")

// EncodeState serializes a replica's lineage + cursors:
//
//	crc u32 LE  CRC-32C over everything after it
//	uvarint len(replid) + replid
//	EncodeCursors(cursors)
func EncodeState(replid string, cursors []uint64) []byte {
	payload := make([]byte, 0, len(replid)+8*len(cursors)+16)
	payload = binary.AppendUvarint(payload, uint64(len(replid)))
	payload = append(payload, replid...)
	payload = append(payload, EncodeCursors(cursors)...)
	out := make([]byte, 4, 4+len(payload))
	binary.LittleEndian.PutUint32(out, block.Checksum(payload))
	return append(out, payload...)
}

// DecodeState parses a cursor state blob.
func DecodeState(data []byte) (replid string, cursors []uint64, err error) {
	if len(data) < 4 {
		return "", nil, fmt.Errorf("%w: truncated", ErrBadState)
	}
	payload := data[4:]
	if binary.LittleEndian.Uint32(data) != block.Checksum(payload) {
		return "", nil, fmt.Errorf("%w: crc mismatch", ErrBadState)
	}
	idB, rest, err := kv.TakeBytes(payload)
	if err != nil {
		return "", nil, fmt.Errorf("%w: replid: %v", ErrBadState, err)
	}
	cursors, err = DecodeCursors(rest)
	if err != nil {
		return "", nil, fmt.Errorf("%w: %v", ErrBadState, err)
	}
	return string(idB), cursors, nil
}
