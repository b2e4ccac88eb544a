package core

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"

	"p2kvs/internal/checkpoint"
	"p2kvs/internal/kv"
	"p2kvs/internal/repl"
	"p2kvs/internal/vfs"
)

// openReplStore opens an LSM-backed store with replication enabled.
func openReplStore(t *testing.T, fs *vfs.MemFS, workers int, backlog int64) *Store {
	t.Helper()
	opts := DefaultOptions(lsmFactory(fs, "p2"))
	opts.Workers = workers
	opts.TxnFS = fs
	opts.TxnDir = "p2/txn"
	opts.ReplLog = repl.NewLog(workers, backlog)
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// applyStream replays every retained record of src's backlog into dst
// via the replica apply path — the in-process equivalent of the wire
// stream, applied per worker in GSN order.
func applyStream(t *testing.T, src, dst *Store, cursors []uint64) []uint64 {
	t.Helper()
	log := src.ReplLog()
	for w := 0; w < log.Workers(); w++ {
		recs, err := log.Since(w, cursors[w])
		if err != nil {
			t.Fatalf("Since(%d, %d): %v", w, cursors[w], err)
		}
		for _, rec := range recs {
			ops, err := repl.DecodeOps(rec.Payload)
			if err != nil {
				t.Fatalf("DecodeOps: %v", err)
			}
			if err := dst.ApplyRepl(rec.Worker, rec.GSN, ops); err != nil {
				t.Fatalf("ApplyRepl(w%d g%d): %v", rec.Worker, rec.GSN, err)
			}
			cursors[w] = rec.GSN
		}
	}
	return cursors
}

// TestReplShipAndApplyConverges drives a primary with plain writes,
// deletes and cross-partition transactions, replays its backlog into a
// replica, and requires byte-identical ordered dumps plus matching
// per-worker stream watermarks.
func TestReplShipAndApplyConverges(t *testing.T) {
	pfs, rfs := vfs.NewMem(), vfs.NewMem()
	p := openReplStore(t, pfs, 4, 0)
	defer p.Close()
	r := openReplStore(t, rfs, 4, 0)
	defer r.Close()

	for i := 0; i < 500; i++ {
		if err := p.Put([]byte(fmt.Sprintf("key-%04d", i)), []byte(fmt.Sprintf("val-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 500; i += 9 {
		if err := p.Delete([]byte(fmt.Sprintf("key-%04d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		var b kv.Batch
		for j := 0; j < 8; j++ {
			b.Put([]byte(fmt.Sprintf("txn-%02d-%d", i, j)), []byte("t"))
		}
		if err := p.Write(&b); err != nil {
			t.Fatal(err)
		}
	}

	applyStream(t, p, r, make([]uint64, 4))

	if want, got := dump(t, p), dump(t, r); !samePairs(want, got) {
		t.Fatalf("replica diverged: primary %d pairs, replica %d", len(want), len(got))
	}
	pw, rw := watermarks(p), watermarks(r)
	for i := range pw {
		if pw[i] != rw[i] {
			t.Fatalf("worker %d watermark: primary %d, replica %d", i, pw[i], rw[i])
		}
	}
	if r.StatsSnapshot().ReplGSN < p.StatsSnapshot().ReplGSN-uint64(len(pw)) {
		t.Fatalf("replica GSN counter did not ratchet: %d vs %d", r.StatsSnapshot().ReplGSN, p.StatsSnapshot().ReplGSN)
	}
}

// TestReplStreamGSNMonotonicPerWorker asserts the property partial sync
// depends on: per worker, backlog records carry strictly increasing GSNs
// — even when cross-partition transaction legs (whose engine GSNs are
// assigned at prepare time, out of apply order) interleave with plain
// writes under concurrency.
func TestReplStreamGSNMonotonicPerWorker(t *testing.T) {
	fs := vfs.NewMem()
	s := openReplStore(t, fs, 4, 0)
	defer s.Close()

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if i%5 == 0 {
					var b kv.Batch
					for j := 0; j < 6; j++ {
						b.Put([]byte(fmt.Sprintf("t-%d-%d-%d", g, i, j)), []byte("v"))
					}
					if err := s.Write(&b); err != nil {
						t.Error(err)
						return
					}
				} else if err := s.Put([]byte(fmt.Sprintf("k-%d-%d", g, i)), []byte("v")); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	log := s.ReplLog()
	for w := 0; w < 4; w++ {
		recs, err := log.Since(w, 0)
		if err != nil {
			t.Fatal(err)
		}
		var prev uint64
		for _, rec := range recs {
			if rec.GSN <= prev {
				t.Fatalf("worker %d: stream GSN %d after %d — not strictly increasing", w, rec.GSN, prev)
			}
			prev = rec.GSN
		}
	}
}

// TestReplCheckpointCursorsResume proves the full-sync handoff: a
// checkpoint's WorkerGSN watermarks are exactly the cursors at which the
// stream resumes — restore the image, replay the backlog from the
// manifest cursors, and the replica converges with nothing lost and
// nothing double-counted.
func TestReplCheckpointCursorsResume(t *testing.T) {
	fs := vfs.NewMem()
	p := openReplStore(t, fs, 2, 0)
	defer p.Close()

	for i := 0; i < 300; i++ {
		if err := p.Put([]byte(fmt.Sprintf("pre-%04d", i)), []byte("a")); err != nil {
			t.Fatal(err)
		}
	}
	m, err := p.Checkpoint(fs, "bak")
	if err != nil {
		t.Fatal(err)
	}
	if m.ReplID != p.ReplLog().ID() {
		t.Fatalf("manifest replid %q, log %q", m.ReplID, p.ReplLog().ID())
	}
	if len(m.WorkerGSN) != 2 || (m.WorkerGSN[0] == 0 && m.WorkerGSN[1] == 0) {
		t.Fatalf("manifest cursors: %v", m.WorkerGSN)
	}
	for i := 0; i < 300; i++ {
		if err := p.Put([]byte(fmt.Sprintf("post-%04d", i)), []byte("b")); err != nil {
			t.Fatal(err)
		}
	}

	// Restore the image (full sync), then tail from the manifest cursors
	// (the partial stream a replica runs after bootstrap).
	dst := vfs.NewMem()
	r := restoreReplStore(t, fs, "bak", dst, 2)
	defer r.Close()
	cursors := append([]uint64(nil), m.WorkerGSN...)
	applyStream(t, p, r, cursors)

	if want, got := dump(t, p), dump(t, r); !samePairs(want, got) {
		t.Fatalf("replica diverged after checkpoint+stream: %d vs %d pairs", len(want), len(got))
	}
}

// TestReplCheckpointMidTxnKeepsStreamComplete pins the image+stream
// completeness contract on the nastiest cut: a checkpoint taken after a
// cross-partition transaction's legs have applied (and shipped into the
// backlog, advancing the raw watermarks) but before its commit record
// reaches the TXNLOG. Restoring such an image rolls the transaction
// back, so the manifest must lower its stream cursors beneath the
// rolled-back legs — otherwise a replica bootstrapping from the image
// loses the whole transaction silently, because the stream never
// re-sends records below the cursors. WritePrepared holds the
// transaction open across the checkpoint to hit the window
// deterministically.
func TestReplCheckpointMidTxnKeepsStreamComplete(t *testing.T) {
	fs := vfs.NewMem()
	p := openReplStore(t, fs, 2, 0)
	defer p.Close()

	for i := 0; i < 100; i++ {
		if err := p.Put([]byte(fmt.Sprintf("pre-%04d", i)), []byte("a")); err != nil {
			t.Fatal(err)
		}
	}
	var b kv.Batch
	for j := 0; j < 16; j++ {
		b.Put([]byte(fmt.Sprintf("txn-%02d", j)), []byte("t"))
	}
	commit, err := p.WritePrepared(&b)
	if err != nil {
		t.Fatal(err)
	}
	raw := watermarks(p)
	m, err := p.Checkpoint(fs, "bak")
	if err != nil {
		t.Fatal(err)
	}
	lowered := false
	for i := range m.WorkerGSN {
		if m.WorkerGSN[i] > raw[i] {
			t.Fatalf("worker %d: manifest cursor %d above pre-checkpoint watermark %d", i, m.WorkerGSN[i], raw[i])
		}
		if m.WorkerGSN[i] < raw[i] {
			lowered = true
		}
	}
	if !lowered {
		t.Fatalf("no cursor lowered below the uncommitted legs: manifest %v, watermarks %v", m.WorkerGSN, raw)
	}
	if err := commit(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := p.Put([]byte(fmt.Sprintf("post-%04d", i)), []byte("b")); err != nil {
			t.Fatal(err)
		}
	}

	dst := vfs.NewMem()
	r := restoreReplStore(t, fs, "bak", dst, 2)
	defer r.Close()
	applyStream(t, p, r, append([]uint64(nil), m.WorkerGSN...))

	if want, got := dump(t, p), dump(t, r); !samePairs(want, got) {
		t.Fatalf("replica diverged on mid-transaction checkpoint: primary %d pairs, replica %d", len(want), len(got))
	}
}

// TestReplCheckpointAfterAbandonedTxnReleasesCursors guards the other
// side of the floor contract: an abandoned transaction (one that will
// never commit) must stop holding checkpoint cursors down, or every
// future full sync would re-stream from — and pin the backlog at — a
// point that never advances.
func TestReplCheckpointAfterAbandonedTxnReleasesCursors(t *testing.T) {
	fs := vfs.NewMem()
	p := openReplStore(t, fs, 2, 0)
	defer p.Close()

	var b kv.Batch
	for j := 0; j < 16; j++ {
		b.Put([]byte(fmt.Sprintf("txn-%02d", j)), []byte("t"))
	}
	commit, err := p.WritePrepared(&b)
	if err != nil {
		t.Fatal(err)
	}
	if err := commit(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := p.Put([]byte(fmt.Sprintf("k-%04d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	raw := watermarks(p)
	m, err := p.Checkpoint(fs, "bak")
	if err != nil {
		t.Fatal(err)
	}
	for i := range m.WorkerGSN {
		if m.WorkerGSN[i] != raw[i] {
			t.Fatalf("worker %d: cursor %d held below watermark %d with no transaction in flight", i, m.WorkerGSN[i], raw[i])
		}
	}
}

// restoreReplStore is restoreStore with replication enabled on the
// restored copy.
func restoreReplStore(t *testing.T, srcFS vfs.FS, bakDir string, dst *vfs.MemFS, workers int) *Store {
	t.Helper()
	place := func(worker int, rel string) string {
		if worker < 0 {
			return "p2/txn/" + rel
		}
		return fmt.Sprintf("p2/inst-%02d/%s", worker, rel)
	}
	if _, err := checkpoint.Restore(srcFS, bakDir, dst, place); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	return openReplStore(t, dst, workers, 0)
}

// TestApplyReplValidation covers the replica apply entry point's edges.
func TestApplyReplValidation(t *testing.T) {
	fs := vfs.NewMem()
	s := openReplStore(t, fs, 2, 0)
	defer s.Close()

	if err := s.ApplyRepl(5, 1, []kv.BatchOp{{Kind: kv.OpPut, Key: []byte("k"), Value: []byte("v")}}); err == nil {
		t.Fatal("out-of-range worker accepted")
	}
	if err := s.ApplyRepl(0, 1, nil); err != nil {
		t.Fatalf("empty record: %v", err)
	}
	if err := s.ApplyRepl(0, 100, []kv.BatchOp{{Kind: kv.OpPut, Key: []byte("k"), Value: []byte("v")}}); err != nil {
		t.Fatal(err)
	}
	if got := s.StatsSnapshot().ReplGSN; got != 100 {
		t.Fatalf("GSN counter did not ratchet to 100: %d", got)
	}
	// A local write after the ratchet must draw a GSN above the stream's.
	if err := s.Put([]byte("local"), []byte("x")); err != nil {
		t.Fatal(err)
	}
	if got := s.StatsSnapshot().ReplGSN; got != 101 {
		t.Fatalf("local allocation did not continue the sequence: %d", got)
	}
	v, err := s.Get([]byte("k"))
	if err != nil || !bytes.Equal(v, []byte("v")) {
		t.Fatalf("applied record not readable: %q %v", v, err)
	}
	s.Close()
	if err := s.ApplyRepl(0, 200, []kv.BatchOp{{Kind: kv.OpDelete, Key: []byte("k")}}); !errors.Is(err, kv.ErrClosed) {
		t.Fatalf("apply on closed store: %v", err)
	}
}

// TestReplDisabledKeepsLegacyWatermarks guards the compatibility
// contract: without Options.ReplLog, lastGSN still tracks only
// transaction GSNs and WorkerStats reports no repl watermark.
func TestReplDisabledKeepsLegacyWatermarks(t *testing.T) {
	fs := vfs.NewMem()
	s := openStore(t, fs, 2)
	defer s.Close()
	for i := 0; i < 50; i++ {
		if err := s.Put([]byte(fmt.Sprintf("k-%d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	for _, ws := range s.Stats() {
		if ws.ReplLastGSN != 0 {
			t.Fatalf("worker %d reports repl watermark without replication: %d", ws.ID, ws.ReplLastGSN)
		}
	}
	if s.ReplLog() != nil {
		t.Fatal("the replication backlog must be nil when disabled")
	}
}

// TestStatsSnapshotReplLastGSN: the stats document carries each worker's
// replication watermark, and the aggregate their max — the hand-written
// JSON projection used to drop the field, so it always read 0.
func TestStatsSnapshotReplLastGSN(t *testing.T) {
	const workers = 4
	s := openReplStore(t, vfs.NewMem(), workers, 1<<20)
	defer s.Close()
	for i := 0; i < 64; i++ {
		if err := s.Put([]byte(fmt.Sprintf("key-%03d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	snap, last := s.StatsSnapshot(), watermarks(s)
	var max uint64
	for i, w := range snap.PerWorker {
		if w.ReplLastGSN == 0 || w.ReplLastGSN != last[i] {
			t.Errorf("worker %d: repl_last_gsn = %d, want the watermark[%d] = %d > 0", i, w.ReplLastGSN, i, last[i])
		}
		if last[i] > max {
			max = last[i]
		}
	}
	if snap.Aggregate.ReplLastGSN != max {
		t.Errorf("aggregate repl_last_gsn = %d, want the max %d", snap.Aggregate.ReplLastGSN, max)
	}
}

// watermarks reads each worker's replication stream watermark — the cursor a
// replica of the store would resume from.
func watermarks(s *Store) []uint64 {
	var out []uint64
	for _, w := range s.ws() {
		out = append(out, w.lastGSN.Load())
	}
	return out
}
