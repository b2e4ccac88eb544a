package repl

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"p2kvs/internal/block"
	"p2kvs/internal/kv"
)

// Wire framing — the replication stream that follows a PSYNC handshake.
// Borrowing the WAL v2 record layout (two CRCs: one sealing the header so
// a torn or flipped length can never cause a mis-sized read, one sealing
// the payload), with the stream-specific kind/worker/gsn fields folded
// into the protected header:
//
//	hcrc   u32 LE  CRC-32C over the remaining 21 header bytes
//	pcrc   u32 LE  CRC-32C over the payload
//	plen   u32 LE
//	kind   u8
//	worker u32 LE
//	gsn    u64 LE
//	payload plen bytes
//
// Every CRC is internal/block's Castagnoli polynomial, same as SST blocks
// (the WAL's records carry IEEE CRC-32s instead). A frame that fails any check is ErrFrameCorrupt; the link
// is torn down and the replica resyncs from its cursor — the stream never
// "skips" a damaged frame.

// Frame kinds.
const (
	// FrameData carries one applied write batch: worker + gsn + EncodeOps
	// payload.
	FrameData = iota + 1
	// FrameHeartbeat is primary→replica liveness + progress: payload is
	// the primary's per-worker last-GSN watermarks (EncodeCursors).
	FrameHeartbeat
	// FrameAck is replica→primary progress: payload is the replica's
	// per-worker applied cursors (EncodeCursors). Advances the pin.
	FrameAck
	// FrameFile is one full-sync image file: payload is
	// uvarint(len(name)) + name + content.
	FrameFile
	// FrameManifest terminates a full-sync image: payload is the
	// CHECKPOINT manifest bytes. The replica restores from the received
	// files, then resumes streaming from the manifest's watermarks.
	FrameManifest
)

const frameHeaderLen = 4 + 4 + 4 + 1 + 4 + 8

// MaxFramePayload bounds a frame's payload, protecting the reader from
// hostile or corrupt length prefixes. Full-sync file frames are the
// largest legitimate frames (one per image file).
const MaxFramePayload = 1 << 28

// ErrFrameCorrupt reports a frame that failed CRC verification, carried
// an unknown kind, or declared an impossible length.
var ErrFrameCorrupt = errors.New("repl: corrupt stream frame")

// Frame is one unit of the replication stream.
type Frame struct {
	Kind    byte
	Worker  uint32
	GSN     uint64
	Payload []byte
}

// WriteFrame seals and writes one frame.
func WriteFrame(w io.Writer, f Frame) error {
	if len(f.Payload) > MaxFramePayload {
		return fmt.Errorf("repl: frame payload %d exceeds limit", len(f.Payload))
	}
	var hdr [frameHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[4:], block.Checksum(f.Payload))
	binary.LittleEndian.PutUint32(hdr[8:], uint32(len(f.Payload)))
	hdr[12] = f.Kind
	binary.LittleEndian.PutUint32(hdr[13:], f.Worker)
	binary.LittleEndian.PutUint64(hdr[17:], f.GSN)
	binary.LittleEndian.PutUint32(hdr[0:], block.Checksum(hdr[4:]))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(f.Payload)
	return err
}

// ReadFrame reads and verifies one frame. Truncation surfaces as
// io.ErrUnexpectedEOF (io.EOF only on a clean boundary); any failed
// check is ErrFrameCorrupt.
func ReadFrame(r io.Reader) (Frame, error) {
	var hdr [frameHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:1]); err != nil {
		return Frame{}, err // clean EOF stays io.EOF
	}
	if _, err := io.ReadFull(r, hdr[1:]); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return Frame{}, err
	}
	if binary.LittleEndian.Uint32(hdr[0:]) != block.Checksum(hdr[4:]) {
		return Frame{}, fmt.Errorf("%w: header crc mismatch", ErrFrameCorrupt)
	}
	plen := binary.LittleEndian.Uint32(hdr[8:])
	if plen > MaxFramePayload {
		return Frame{}, fmt.Errorf("%w: payload length %d exceeds limit", ErrFrameCorrupt, plen)
	}
	f := Frame{
		Kind:   hdr[12],
		Worker: binary.LittleEndian.Uint32(hdr[13:]),
		GSN:    binary.LittleEndian.Uint64(hdr[17:]),
	}
	if f.Kind < FrameData || f.Kind > FrameManifest {
		return Frame{}, fmt.Errorf("%w: unknown kind %d", ErrFrameCorrupt, f.Kind)
	}
	f.Payload = make([]byte, plen)
	if _, err := io.ReadFull(r, f.Payload); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return Frame{}, err
	}
	if binary.LittleEndian.Uint32(hdr[4:]) != block.Checksum(f.Payload) {
		return Frame{}, fmt.Errorf("%w: payload crc mismatch", ErrFrameCorrupt)
	}
	return f, nil
}

// EncodeCursors serializes per-worker GSN cursors (heartbeat and ack
// payloads).
func EncodeCursors(cursors []uint64) []byte {
	buf := make([]byte, 0, (len(cursors)+1)*binary.MaxVarintLen64)
	buf = binary.AppendUvarint(buf, uint64(len(cursors)))
	for _, c := range cursors {
		buf = binary.AppendUvarint(buf, c)
	}
	return buf
}

// DecodeCursors parses a cursor payload.
func DecodeCursors(payload []byte) ([]uint64, error) {
	n, used := binary.Uvarint(payload)
	if used <= 0 || n > 1<<16 {
		return nil, fmt.Errorf("%w: bad cursor count", ErrBadPayload)
	}
	payload = payload[used:]
	out := make([]uint64, 0, n)
	for i := uint64(0); i < n; i++ {
		c, used := binary.Uvarint(payload)
		if used <= 0 {
			return nil, fmt.Errorf("%w: truncated cursor", ErrBadPayload)
		}
		payload = payload[used:]
		out = append(out, c)
	}
	if len(payload) != 0 {
		return nil, fmt.Errorf("%w: %d trailing cursor bytes", ErrBadPayload, len(payload))
	}
	return out, nil
}

// EncodeFile serializes a full-sync file frame payload.
func EncodeFile(name string, content []byte) []byte {
	buf := make([]byte, 0, binary.MaxVarintLen64+len(name)+len(content))
	buf = binary.AppendUvarint(buf, uint64(len(name)))
	buf = append(buf, name...)
	buf = append(buf, content...)
	return buf
}

// DecodeFile parses a full-sync file frame payload. The content aliases
// the payload buffer.
func DecodeFile(payload []byte) (name string, content []byte, err error) {
	nameB, rest, err := kv.TakeBytes(payload)
	if err != nil {
		return "", nil, fmt.Errorf("%w: file name: %v", ErrBadPayload, err)
	}
	if len(nameB) == 0 {
		return "", nil, fmt.Errorf("%w: empty file name", ErrBadPayload)
	}
	return string(nameB), rest, nil
}
