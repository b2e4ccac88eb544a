package lsm

import (
	"encoding/hex"
	"testing"

	"p2kvs/internal/kv"
)

// FuzzDecodeBatchPayload: WAL payloads come off disk; arbitrary bytes
// must decode to an error or a well-formed op list, never panic.
func FuzzDecodeBatchPayload(f *testing.F) {
	var b kv.Batch
	b.Put([]byte("key"), []byte("value"))
	b.Delete([]byte("gone"))
	f.Add(appendBatchPayload(nil, 42, &b))
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3})
	valid := appendBatchPayload(nil, 1, &b)
	truncated := valid[:len(valid)-2]
	f.Add(truncated)
	huge := append([]byte(nil), valid...)
	huge[8] = 0xff // absurd op count
	f.Add(huge)

	f.Fuzz(func(t *testing.T, data []byte) {
		_, ops, err := decodeBatchPayload(data)
		if err != nil {
			return
		}
		for _, op := range ops {
			if op.Kind != kv.OpPut && op.Kind != kv.OpDelete {
				t.Fatalf("decoded unknown op kind %d", op.Kind)
			}
		}
	})
}

// FuzzBatchPayloadRoundTrip: encode(decode(encode(x))) is stable for any
// op mix.
func FuzzBatchPayloadRoundTrip(f *testing.F) {
	f.Add([]byte("k1"), []byte("v1"), []byte("k2"), true)
	f.Fuzz(func(t *testing.T, k1, v1, k2 []byte, del bool) {
		var b kv.Batch
		b.Put(k1, v1)
		if del {
			b.Delete(k2)
		} else {
			b.Put(k2, nil)
		}
		payload := appendBatchPayload(nil, 7, &b)
		base, ops, err := decodeBatchPayload(payload)
		if err != nil {
			t.Fatal(err)
		}
		if base != 7 || len(ops) != 2 {
			t.Fatalf("base=%d ops=%d", base, len(ops))
		}
		if string(ops[0].Key) != string(k1) || string(ops[0].Value) != string(v1) {
			t.Fatalf("op0 = %q/%q", ops[0].Key, ops[0].Value)
		}
		if string(ops[1].Key) != string(k2) {
			t.Fatalf("op1 key = %q", ops[1].Key)
		}
	})
}

// TestBatchPayloadGolden pins the WAL payload bytes: what the parent commit's
// hand-written encoder produced for kv's golden batch (kv/opcodec_test.go),
// so a store written before the shared op codec still replays.
func TestBatchPayloadGolden(t *testing.T) {
	const golden = "0807060504030201" + "03000000" + "0105616c706861036f6e65020462657461010567616d6d6100"
	var b kv.Batch
	b.Put([]byte("alpha"), []byte("one"))
	b.Delete([]byte("beta"))
	b.Put([]byte("gamma"), nil)
	payload := appendBatchPayload(nil, 0x0102030405060708, &b)
	if got := hex.EncodeToString(payload); got != golden {
		t.Fatalf("WAL payload = %s\nwant          %s", got, golden)
	}
	base, ops, err := decodeBatchPayload(payload)
	if err != nil || base != 0x0102030405060708 || len(ops) != 3 || ops[1].Kind != kv.OpDelete || string(ops[0].Value) != "one" {
		t.Fatalf("decode: base %x ops %+v err %v", base, ops, err)
	}
}
