package core

import (
	"bytes"
	"encoding/json"
	"testing"

	"p2kvs/internal/kv"
)

func TestStatsJSONStableSchema(t *testing.T) {
	opts := DefaultOptions(func(id int, _ func(uint64) bool) (kv.Engine, error) {
		return newStubEngine(nil), nil
	})
	opts.Workers = 3
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	var b kv.Batch
	for i := 0; i < 10; i++ {
		b.Put([]byte{byte('a' + i)}, []byte("v"))
	}
	// Single-shard batches only (no TxnFS configured): write per key.
	for _, op := range b.Ops() {
		if err := s.Put(op.Key, op.Value); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Get([]byte("a")); err != nil {
		t.Fatal(err)
	}

	raw, err := json.Marshal(s.StatsSnapshot())
	if err != nil {
		t.Fatal(err)
	}
	var snap StatsSnapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatalf("StatsSnapshot's JSON not round-trippable: %v\n%s", err, raw)
	}
	if snap.Workers != 3 || len(snap.PerWorker) != 3 {
		t.Fatalf("workers = %d / %d per-worker entries, want 3", snap.Workers, len(snap.PerWorker))
	}
	if snap.Aggregate.ID != -1 {
		t.Fatalf("aggregate ID = %d, want -1", snap.Aggregate.ID)
	}
	// Ten puts and one get, each through its worker or, on an idle one, run
	// by its caller.
	if got := snap.Aggregate.Ops + snap.Aggregate.DirectWrites + snap.Aggregate.DirectReads; got != 11 || snap.Aggregate.DirectReads > 1 {
		t.Fatalf("aggregate ops + direct_writes + direct_reads = %d + %d + %d, want 11 with at most one direct read",
			snap.Aggregate.Ops, snap.Aggregate.DirectWrites, snap.Aggregate.DirectReads)
	}
	var perWorkerOps, perWorkerDirect int64
	for _, w := range snap.PerWorker {
		perWorkerOps += w.Ops
		perWorkerDirect += w.DirectWrites
	}
	if perWorkerDirect != snap.Aggregate.DirectWrites {
		t.Fatalf("per-worker direct_writes sum %d != aggregate %d", perWorkerDirect, snap.Aggregate.DirectWrites)
	}
	if perWorkerOps != snap.Aggregate.Ops {
		t.Fatalf("per-worker ops %d != aggregate %d", perWorkerOps, snap.Aggregate.Ops)
	}
	if snap.Aggregate.State != kv.StateHealthy {
		t.Fatalf("aggregate health = %q, want healthy", snap.Aggregate.State)
	}

	// Schema stability: the documented field names must appear verbatim.
	for _, key := range []string{`"aggregate"`, `"per_worker"`, `"batch_write_ops"`, `"multiget_ops"`,
		`"queue_wait_us"`, `"rejected"`, `"expired"`, `"shed"`, `"queue_high_water"`, `"health"`} {
		if !bytes.Contains(raw, []byte(key)) {
			t.Fatalf("StatsSnapshot's JSON missing field %s:\n%s", key, raw)
		}
	}
}
