package main

import (
	"bytes"
	"math"
	"testing"

	"p2kvs/internal/kv"
	"p2kvs/internal/lsm"
	"p2kvs/internal/vfs"
)

// The decorators must change nothing the accessing layer can observe, and
// what they count must agree with the program's own counters.
func TestDecoratorsAreTransparent(t *testing.T) {
	const keys, opsPerClient = 100_000, 25_000
	tr := newTracer(0)
	h, err := openHarness(keys, 0, tr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := h.close(); err != nil {
			t.Errorf("close: %v", err)
		}
	}()

	for i, db := range h.dbs {
		e := h.store.Engine(i)
		if _, ok := e.(*tracedEngine); !ok {
			t.Fatalf("worker %d runs on %T, not on the decorator", i, e)
		}
		if got, want := kv.CapsOf(e), kv.CapsOf(db); got != want {
			t.Errorf("worker %d: caps %+v through the decorator, %+v without", i, got, want)
		}
		if _, ok := e.(interface {
			WriteGSN(*kv.Batch, uint64) error
		}); !ok {
			t.Errorf("worker %d: the decorator hides WriteGSN", i)
		}
	}

	before, err := h.takeLayers(false)
	if err != nil {
		t.Fatal(err)
	}
	res, err := h.runPhase(driveAsync, mix{uniformChooser{keys}, 1}, 1, 't', budget{ops: opsPerClient})
	if err != nil {
		t.Fatal(err)
	}
	after, err := h.takeLayers(false)
	if err != nil {
		t.Fatal(err)
	}
	if res.res.failed != 0 || res.ops() != numClients*opsPerClient {
		t.Fatalf("%d operations, %d failed: %v", res.ops(), res.res.failed, res.res.firstErr)
	}

	// The decorator's view against the undecorated StatsSnapshot and Perf.
	sp := after.spans.sub(before.spans)[spEngineWrite]
	ca, cb := after.core.Aggregate, before.core.Aggregate
	coreBatch := float64(ca.Ops-cb.Ops) / float64(ca.Batches-cb.Batches)
	opsPerWrite := float64(sp.items) / float64(sp.calls)
	if math.Abs(opsPerWrite-coreBatch) > 0.05*coreBatch {
		t.Errorf("lsm.ops_per_write %.3f from the decorator, core.avg_batch %.3f from StatsSnapshot", opsPerWrite, coreBatch)
	}
	if sp.items != res.ops() {
		t.Errorf("the decorator saw %d written keys, the clients wrote %d", sp.items, res.ops())
	}
	if got, want := sp.items, after.perf.Writes-before.perf.Writes; got != want {
		t.Errorf("the decorator saw %d written keys, Perf counted %d", got, want)
	}
	if got, want := ca.Ops-cb.Ops, res.ops(); got != want {
		t.Errorf("StatsSnapshot counted %d operations, the clients issued %d", got, want)
	}

	// Reads come back right through both decorators.
	if attempted, failed, first := h.audit(1, 1000); attempted == 0 || failed != 0 {
		t.Errorf("audit: %d attempted, %d failed: %v", attempted, failed, first)
	}
}

func TestLSMLifecycleThroughTheFilesystemDecorator(t *testing.T) {
	tr := newTracer(0)
	fs := newMeteredFS(vfs.NewMem(), tr)
	db, err := lsm.Open("d", lsm.RocksDBOptions(fs))
	if err != nil {
		t.Fatal(err)
	}
	key, val := []byte("user000000000001"), bytes.Repeat([]byte{0xab}, valueLen)
	if err := db.Put(key, val); err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	if db, err = lsm.Open("d", lsm.RocksDBOptions(fs)); err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer db.Close()
	before := fs.snapshot()
	got, err := db.Get(key)
	if err != nil || !bytes.Equal(got, val) {
		t.Fatalf("get after reopen: %x, %v", got, err)
	}

	total := fs.snapshot()
	if total[classWAL].writeBytes < int64(len(key)+len(val)) {
		t.Errorf("%d WAL bytes counted for a %d-byte put", total[classWAL].writeBytes, len(key)+len(val))
	}
	if total[classSST].writeBytes < int64(len(key)+len(val)) {
		t.Errorf("%d SSTable bytes counted after a flush", total[classSST].writeBytes)
	}
	if total[classMeta].writeBytes == 0 {
		t.Error("no manifest bytes counted")
	}
	if d := total.sub(before); d[classSST].readCalls == 0 || d[classSST].readBytes == 0 {
		t.Errorf("a cold get read nothing from the SSTable: %+v", d[classSST])
	}
	live, err := fs.liveBytes([]string{"d"})
	if err != nil || live <= 0 {
		t.Errorf("live bytes %d, %v", live, err)
	}
	agg := tr.snapshot()
	if agg[spVfsWrite].calls == 0 || agg[spVfsReadAt].calls == 0 || agg[spVfsWrite].items != total[classWAL].writeBytes+total[classSST].writeBytes+total[classMeta].writeBytes {
		t.Errorf("spans disagree with the byte counters: %+v vs %+v", agg[spVfsWrite], total)
	}
}

func TestShardOf(t *testing.T) {
	for name, want := range map[string]int{
		instDir(2) + "/000001.log": 2,
		instDir(0) + "/MANIFEST":   0,
		storeDir + "/txn/TXNLOG":   sharedShard,
		"d/000001.sst":             sharedShard,
	} {
		if got := shardOf(name); got != want {
			t.Errorf("shardOf(%q) = %d, want %d", name, got, want)
		}
	}
}
