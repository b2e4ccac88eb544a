package kv

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// The op body codec — the one byte layout of an op list, shared by the LSM
// engine's WAL record and the replication data frame (each prepends its own
// header: base sequence + u32 count, or a uvarint count):
//
//	per op:
//	  kind  byte            (OpPut | OpDelete)
//	  klen  uvarint, key    bytes
//	  vlen  uvarint, value  bytes   (puts only)

// BatchOf wraps ops as a Batch without copying them; the batch owns the
// slice from here on.
func BatchOf(ops []BatchOp) Batch {
	b := Batch{ops: ops}
	for _, op := range ops {
		b.size += len(op.Key) + len(op.Value)
	}
	return b
}

// OpsBound is an upper bound on what AppendOps adds for ops (keys and
// values under 4 GiB), for sizing the buffer once.
func OpsBound(ops []BatchOp) int {
	n := 0
	for _, op := range ops {
		n += 1 + 2*binary.MaxVarintLen32 + len(op.Key) + len(op.Value)
	}
	return n
}

// AppendOps appends the encoded ops to buf, copying key and value bytes
// out of the caller's buffers.
func AppendOps(buf []byte, ops []BatchOp) []byte {
	for _, op := range ops {
		buf = append(buf, byte(op.Kind))
		buf = binary.AppendUvarint(buf, uint64(len(op.Key)))
		buf = append(buf, op.Key...)
		if op.Kind == OpPut {
			buf = binary.AppendUvarint(buf, uint64(len(op.Value)))
			buf = append(buf, op.Value...)
		}
	}
	return buf
}

// DecodeOps parses n encoded ops off the front of p and returns them with
// the bytes that follow. The ops alias p; callers that outlive it must
// copy. The input comes off disk or the wire: any truncation, an unknown
// kind or an n that p cannot hold is an error, never a panic or an
// allocation sized by n alone.
func DecodeOps(p []byte, n uint64) (ops []BatchOp, rest []byte, err error) {
	if n > uint64(len(p))/2 { // an op is at least a kind and a klen byte
		return nil, nil, fmt.Errorf("kv: %d ops cannot fit in %d bytes", n, len(p))
	}
	ops = make([]BatchOp, 0, n)
	for i := uint64(0); i < n; i++ {
		if len(p) < 1 {
			return nil, nil, errors.New("kv: truncated op kind")
		}
		op := BatchOp{Kind: OpKind(p[0])}
		if op.Kind != OpPut && op.Kind != OpDelete {
			return nil, nil, fmt.Errorf("kv: unknown op kind %d", op.Kind)
		}
		if op.Key, p, err = TakeBytes(p[1:]); err != nil {
			return nil, nil, fmt.Errorf("kv: op key: %w", err)
		}
		if op.Kind == OpPut {
			if op.Value, p, err = TakeBytes(p); err != nil {
				return nil, nil, fmt.Errorf("kv: op value: %w", err)
			}
		}
		ops = append(ops, op)
	}
	return ops, p, nil
}

// TakeBytes splits a uvarint-length-prefixed byte string — the framing of a
// key or a value above — off the front of b. The result aliases b.
func TakeBytes(b []byte) (s, rest []byte, err error) {
	l, n := binary.Uvarint(b)
	if n <= 0 {
		return nil, nil, errors.New("bad length prefix")
	}
	b = b[n:]
	if uint64(len(b)) < l {
		return nil, nil, errors.New("truncated bytes")
	}
	return b[:l], b[l:], nil
}
