package repl

import (
	"encoding/binary"
	"errors"
	"fmt"

	"p2kvs/internal/kv"
)

// Op payload encoding — the body of a data frame. Self-describing and
// length-prefixed so a decoder can reject any truncation or corruption
// the frame CRC somehow missed:
//
//	nops  uvarint
//	ops   the shared op body codec (kv.AppendOps / kv.DecodeOps)
//
// Encoded payloads are owned by the record: EncodeOps copies key/value
// bytes out of the caller's buffers (the RESP reader and OBM batches
// recycle theirs).

// ErrBadPayload reports a data-frame payload that does not decode to a
// well-formed op list.
var ErrBadPayload = errors.New("repl: malformed op payload")

// maxOpsPerRecord bounds decode-side allocation against hostile nops
// prefixes. The accessing layer's MaxBatch is ≤ 1024; anything larger is
// corruption, not load.
const maxOpsPerRecord = 1 << 16

// EncodeOps serializes a batch's ops into an owned payload.
func EncodeOps(ops []kv.BatchOp) []byte {
	buf := make([]byte, 0, binary.MaxVarintLen64+kv.OpsBound(ops))
	return kv.AppendOps(binary.AppendUvarint(buf, uint64(len(ops))), ops)
}

// DecodeOps parses a payload back into ops. The returned ops alias the
// payload buffer; callers that outlive it must copy.
func DecodeOps(payload []byte) ([]kv.BatchOp, error) {
	nops, n := binary.Uvarint(payload)
	if n <= 0 {
		return nil, fmt.Errorf("%w: bad op count", ErrBadPayload)
	}
	if nops > maxOpsPerRecord {
		return nil, fmt.Errorf("%w: op count %d exceeds limit", ErrBadPayload, nops)
	}
	ops, rest, err := kv.DecodeOps(payload[n:], nops)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadPayload, err)
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrBadPayload, len(rest))
	}
	return ops, nil
}
