package kv

import (
	"bytes"
	"encoding/hex"
	"testing"
)

// goldenOps is the batch the codec goldens encode, here and in the lsm and
// repl packages: a put, a delete and a put of an empty value.
func goldenOps() []BatchOp {
	var b Batch
	b.Put([]byte("alpha"), []byte("one"))
	b.Delete([]byte("beta"))
	b.Put([]byte("gamma"), nil)
	return b.Ops()
}

// goldenBody is what the parent commit's two hand-written encoders
// (lsm.encodeBatchPayload, repl.EncodeOps) both produced for goldenOps
// after their own headers.
const goldenBody = "0105616c706861036f6e65020462657461010567616d6d6100"

func TestOpCodecGoldenAndRoundTrip(t *testing.T) {
	ops := goldenOps()
	body := AppendOps(nil, ops)
	if got := hex.EncodeToString(body); got != goldenBody {
		t.Fatalf("AppendOps = %s\nwant       %s", got, goldenBody)
	}
	if n := OpsBound(ops); n < len(body) {
		t.Fatalf("OpsBound = %d, below the %d bytes encoded", n, len(body))
	}
	got, rest, err := DecodeOps(append(body, 0xEE), uint64(len(ops)))
	if err != nil || !bytes.Equal(rest, []byte{0xEE}) || len(got) != len(ops) {
		t.Fatalf("DecodeOps: %d ops, rest %x, err %v", len(got), rest, err)
	}
	for i, op := range got {
		if op.Kind != ops[i].Kind || !bytes.Equal(op.Key, ops[i].Key) || !bytes.Equal(op.Value, ops[i].Value) {
			t.Fatalf("op %d = %+v, want %+v", i, op, ops[i])
		}
	}
	if b := BatchOf(got); b.Len() != 3 || b.Size() != len("alpha")+len("one")+len("beta")+len("gamma") {
		t.Fatalf("BatchOf: len %d size %d", b.Len(), b.Size())
	}
}

func TestDecodeOpsRejects(t *testing.T) {
	body := AppendOps(nil, goldenOps())
	unknownKind := append([]byte(nil), body...)
	unknownKind[0] = 9
	for name, c := range map[string]struct {
		p []byte
		n uint64
	}{
		"truncated value":    {body[:len(body)-12], 3},
		"truncated key":      {body[:3], 1},
		"more ops than data": {body, 4},
		"absurd op count":    {body, 1 << 40},
		"unknown kind":       {unknownKind, 3},
		"empty":              {nil, 1},
	} {
		if _, _, err := DecodeOps(c.p, c.n); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}
