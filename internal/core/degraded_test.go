package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"testing"
	"time"

	"p2kvs/internal/keyspace"
	"p2kvs/internal/kv"
	"p2kvs/internal/lsm"
	"p2kvs/internal/vfs"
	"p2kvs/internal/wal"
)

// faultLSMFactory is lsmFactory over an arbitrary (fault-injecting) FS
// with a small retry budget so degradation is reachable in test time.
func faultLSMFactory(fs vfs.FS, root string) EngineFactory {
	return func(id int, filter func(uint64) bool) (kv.Engine, error) {
		opts := lsm.RocksDBOptions(fs)
		opts.MemTableSize = 32 << 10
		opts.BaseLevelSize = 128 << 10
		opts.TargetFileSize = 32 << 10
		opts.WALSync = wal.PolicyCommit
		opts.BgMaxRetries = 2
		opts.BgBaseBackoff = time.Millisecond
		opts.BgMaxBackoff = 2 * time.Millisecond
		return lsm.OpenWith(fmt.Sprintf("%s/inst-%02d", root, id), opts, lsm.OpenOptions{RecoverFilter: filter})
	}
}

// TestDegradedShardFailsFastOthersServe: one shard's engine degrades to
// read-only under a persistent fault. The store must (a) fail writes to
// that shard fast with kv.ErrDegraded — including multi-partition
// batches, before any txn-log record is written, and a WriteEachCtx's ops on
// that shard only — (b) keep serving reads everywhere and writes on the
// healthy shards, (c) report the state in
// Stats(), and (d) restore the shard via Store.Resume() with no data
// loss.
func TestDegradedShardFailsFastOthersServe(t *testing.T) {
	const workers = 3
	mem := vfs.NewMem()
	ffs := vfs.NewFault(mem)
	opts := DefaultOptions(faultLSMFactory(ffs, "p2"))
	opts.Workers = workers
	opts.TxnFS = mem
	opts.TxnDir = "p2/txn"
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// keyFor scans for the i-th key landing on a given shard, using the
	// same hash partitioner the store was built with.
	part := keyspace.NewHash(workers)
	keyFor := func(shard, i int) []byte {
		seen := 0
		for j := 0; ; j++ {
			k := []byte(fmt.Sprintf("key-%05d", j))
			if part.Pick(k) == shard {
				if seen == i {
					return k
				}
				seen++
			}
		}
	}

	const perShard = 10
	val := func(shard, i int) []byte { return []byte(fmt.Sprintf("v-%d-%d", shard, i)) }
	for shard := 0; shard < workers; shard++ {
		for i := 0; i < perShard; i++ {
			if err := s.Put(keyFor(shard, i), val(shard, i)); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Persistent fault on everything shard 0 creates: its flush exhausts
	// the retry budget and the engine degrades to read-only.
	ffs.Inject(vfs.Rule{Op: vfs.OpCreate, Path: "inst-00"})
	if err := s.Engine(0).Flush(); !errors.Is(err, kv.ErrDegraded) {
		t.Fatalf("shard-0 flush err = %v, want ErrDegraded", err)
	}

	// The injected-fault counter belongs to the filesystem the workers
	// share, so the aggregate reports it once, not once per worker.
	if k, got := ffs.InjectedFaults(), s.StatsSnapshot().Aggregate.InjectedFaults; k == 0 || got != k {
		t.Fatalf("aggregate injected_faults = %d, want the FaultFS's %d > 0", got, k)
	}

	// On the wire the state is its name and the error its message, and
	// the document decodes back into the type that produced it.
	raw, err := json.Marshal(s.StatsSnapshot())
	if err != nil || !bytes.Contains(raw, []byte(`"health":"read-only","health_err":"`)) {
		t.Fatalf("JSON of a degraded store's StatsSnapshot: %v\n%s", err, raw)
	}
	var back StatsSnapshot
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatalf("JSON of a degraded store's StatsSnapshot does not decode: %v\n%s", err, raw)
	}
	if w0, live := back.PerWorker[0], s.Stats()[0]; w0.State != kv.StateReadOnly || w0.Err == nil || w0.Err.Error() != live.Err.Error() {
		t.Fatalf("decoded shard 0 = %v / %v, want read-only with %q", w0.State, w0.Err, live.Err)
	}

	st := s.Stats()
	if st[0].Health.State != kv.StateReadOnly {
		t.Fatalf("shard 0 health = %v, want read-only", st[0].Health.State)
	}
	for i := 1; i < workers; i++ {
		if st[i].Health.State != kv.StateHealthy {
			t.Fatalf("shard %d health = %v, want healthy", i, st[i].Health.State)
		}
	}

	// Writes to the degraded shard fail fast.
	if err := s.Put(keyFor(0, perShard), []byte("x")); !errors.Is(err, kv.ErrDegraded) {
		t.Fatalf("put to degraded shard err = %v, want ErrDegraded", err)
	}
	if err := s.Delete(keyFor(0, 0)); !errors.Is(err, kv.ErrDegraded) {
		t.Fatalf("delete on degraded shard err = %v, want ErrDegraded", err)
	}
	// A cross-partition batch touching the degraded shard fails before
	// the GSN transaction begins — no stranded txn-log record.
	var b kv.Batch
	b.Put(keyFor(0, perShard), []byte("x"))
	b.Put(keyFor(1, perShard), []byte("x"))
	if err := s.Write(&b); !errors.Is(err, kv.ErrDegraded) {
		t.Fatalf("cross-shard batch err = %v, want ErrDegraded", err)
	}

	// Healthy shards still take writes; every shard still serves reads.
	if err := s.Put(keyFor(1, perShard), val(1, perShard)); err != nil {
		t.Fatalf("healthy shard rejected write: %v", err)
	}
	// Independent writes fail per shard: a WriteEachCtx spanning the
	// degraded shard and a healthy one fails shard 0's op only, and the
	// healthy shard's ops land.
	var each kv.Batch
	each.Put(keyFor(0, perShard+1), []byte("x"))
	each.Put(keyFor(1, perShard+1), val(1, perShard+1))
	each.Put(keyFor(1, perShard+2), val(1, perShard+2))
	errs := make([]error, each.Len())
	s.WriteEachCtx(nil, &each, errs)
	if !errors.Is(errs[0], kv.ErrDegraded) || errs[1] != nil || errs[2] != nil {
		t.Fatalf("WriteEachCtx over degraded shard 0 and healthy shard 1: errs = %v, want [ErrDegraded nil nil]", errs)
	}
	for i := perShard + 1; i <= perShard+2; i++ {
		if v, err := s.Get(keyFor(1, i)); err != nil || string(v) != string(val(1, i)) {
			t.Fatalf("get of healthy shard 1's WriteEachCtx key %d = %q, %v", i, v, err)
		}
	}
	for shard := 0; shard < workers; shard++ {
		for i := 0; i < perShard; i++ {
			v, err := s.Get(keyFor(shard, i))
			if err != nil || string(v) != string(val(shard, i)) {
				t.Fatalf("get shard %d key %d = %q, %v", shard, i, v, err)
			}
		}
	}

	// Fault clears; Resume restores shard 0 end to end.
	ffs.ClearRules()
	if err := s.Resume(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.Stats()[0].Health.State != kv.StateHealthy {
		if time.Now().After(deadline) {
			t.Fatalf("shard 0 did not recover: %+v", s.Stats()[0].Health)
		}
		time.Sleep(time.Millisecond)
	}
	if err := s.Put(keyFor(0, perShard), val(0, perShard)); err != nil {
		t.Fatalf("post-resume write: %v", err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	for shard := 0; shard < workers; shard++ {
		for i := 0; i <= perShard; i++ {
			if shard == 2 && i == perShard {
				continue // never written
			}
			v, err := s.Get(keyFor(shard, i))
			if err != nil || string(v) != string(val(shard, i)) {
				t.Fatalf("post-resume get shard %d key %d = %q, %v", shard, i, v, err)
			}
		}
	}
}
