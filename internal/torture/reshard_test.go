package torture

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"p2kvs/internal/core"
	"p2kvs/internal/keyspace"
	"p2kvs/internal/kv"
	"p2kvs/internal/reshard"
	"p2kvs/internal/vfs"
)

// Torture for online resharding: the full store (elastic ring, hot cache
// on, cross-partition transactions) driven against the shadow model
// while Reshard runs concurrently under fault injection and crash
// cycles. A crash mid-copy or mid-cutover must recover to exactly one
// ring — the old topology or the new one, never a mix — which the model
// checks implicitly: a key read from the wrong ring generation surfaces
// as a lost acked write or invented garbage.

const reshardTortureDir = "p2"

func openTortureStore(ffs vfs.FS, workers int) (*core.Store, error) {
	opts := core.DefaultOptions(pick("lsm-rocksdb")[0].factory(ffs, reshardTortureDir))
	opts.Workers = workers
	opts.Partitioner = keyspace.NewConsistent(workers, 64)
	opts.TxnFS = ffs
	opts.TxnDir = reshardTortureDir + "/txn"
	opts.HotCacheBytes = 1 << 20
	opts.InstanceReset = func(id int) error {
		return vfs.RemoveTree(ffs, fmt.Sprintf("%s/inst-%02d", reshardTortureDir, id))
	}
	return core.Open(opts)
}

// committedWorkers reads the crash-durable topology to learn the worker
// count a reopen must use — exactly what a real operator (or the facade)
// does after a crash mid-reshard.
func committedWorkers(fs vfs.FS, fallback int) (int, error) {
	topo, err := reshard.LoadTopology(fs, reshardTortureDir+"/txn")
	if err != nil {
		return 0, err
	}
	if topo == nil {
		return fallback, nil
	}
	return topo.Workers, nil
}

func TestReshardTorture(t *testing.T) {
	seeds, nOps := []int64{0xE1A571C, 31}, 2400
	if testing.Short() {
		seeds, nOps = seeds[:1], 900
	}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			reshardTorture(t, nOps, seed)
		})
	}
}

func reshardTorture(t *testing.T, nOps int, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	mem := vfs.NewMem()
	ffs := vfs.NewFaultSeeded(mem, seed)

	workers := 2
	store, err := openTortureStore(ffs, workers)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { store.Close() }()

	const poolSize = 150
	pool := make([]string, poolSize)
	for i := range pool {
		pool[i] = fmt.Sprintf("key-%03d", i)
	}
	shadow := newModel(pool...)

	// The store wraps worker faults in degraded health; recovery is
	// clear-rules + Resume, as an operator would.
	menu := []vfs.Rule{
		{Op: vfs.OpSync, Path: ".log", Prob: 0.03},
		{Op: vfs.OpWrite, Prob: 0.01, TornWrite: true},
		{Op: vfs.OpCreate, Prob: 0.01},
		{Op: vfs.OpAny, Prob: 0.03, DelayOnly: true, Delay: 200 * time.Microsecond},
	}
	armed := false
	heal := func() {
		ffs.ClearRules()
		armed = false
		_ = store.Resume()
	}

	// One reshard at a time, concurrent with the op stream. reshardDone
	// is nil when idle; completions update the expected worker count from
	// the store itself (a post-commit cleanup failure still counts as the
	// new shape).
	var reshardDone chan error
	reshardsStarted, reshardsOK := 0, 0
	op := 0 // the loop index, for the log lines a failure prints
	startReshard := func() {
		target := workers + 1
		if workers >= 4 || (workers > 1 && rng.Intn(2) == 0) {
			target = workers - 1
		}
		reshardDone = make(chan error, 1)
		reshardsStarted++
		t.Logf("op %d: reshard %d→%d started", op, workers, target)
		go func(n int) { reshardDone <- store.Reshard(context.Background(), n) }(target)
	}
	settled := func(err error) {
		if err == nil {
			reshardsOK++
		}
		reshardDone = nil
		workers = store.Workers()
		t.Logf("op %d: reshard settled at %d workers: %v", op, workers, err)
	}
	settleReshard := func(block bool) {
		if reshardDone == nil {
			return
		}
		if block {
			settled(<-reshardDone)
			return
		}
		select {
		case err := <-reshardDone:
			settled(err)
		default:
		}
	}

	var okOps, failOps, crashes, consecFails int
	for i := 0; i < nOps; i++ {
		op = i
		switch {
		case !armed && (i/50)%3 == 1:
			for _, r := range menu {
				ffs.Inject(r)
			}
			armed = true
		case armed && (i/50)%3 != 1:
			ffs.ClearRules()
			armed = false
		}

		settleReshard(false)
		// Two trigger points: mid-window (usually completes while ops
		// flow) and a few ops before each crash point (usually still in
		// prepare/copy/cutover when the crash lands).
		if reshardDone == nil && (i%300 == 150 || i%500 == 490) {
			startReshard()
		}

		// Crash mid-whatever the reshard is doing: close (the in-flight
		// run aborts or commits; Close never deadlocks on it), restart,
		// and reopen at the worker count the TOPOLOGY file committed —
		// the old ring or the new one, never a blend.
		if i%500 == 499 {
			ffs.ClearRules()
			armed = false
			mem.Crash()
			_ = store.Close()
			settleReshard(true)
			mem.Restart()
			n, err := committedWorkers(ffs, workers)
			if err != nil {
				t.Fatalf("op %d: reading TOPOLOGY after crash: %v", i, err)
			}
			if store, err = openTortureStore(ffs, n); err != nil {
				t.Fatalf("op %d: reopen after crash at %d workers: %v", i, n, err)
			}
			workers = n
			shadow.recovered()
			crashes++
			t.Logf("op %d: crashed, reopened at %d workers", i, n)
		}

		k := pool[rng.Intn(poolSize)]
		switch p := rng.Intn(100); {
		case p < 40: // put
			v := fmt.Sprintf("v%06d", i)
			if err := store.Put([]byte(k), []byte(v)); err != nil {
				shadow.admit(k, v)
				failOps++
				consecFails++
				heal()
			} else {
				shadow.collapse(k, v)
				okOps++
				consecFails = 0
			}
		case p < 50: // cross-partition transaction
			k2 := pool[rng.Intn(poolSize)]
			v := fmt.Sprintf("t%06d", i)
			var b kv.Batch
			b.Put([]byte(k), []byte(v))
			b.Put([]byte(k2), []byte(v))
			if err := store.Write(&b); err != nil {
				shadow.admitTentative(k, v)
				shadow.admitTentative(k2, v)
				failOps++
				consecFails++
				heal()
			} else {
				shadow.collapse(k, v)
				shadow.collapse(k2, v)
				okOps++
				consecFails = 0
			}
		case p < 62: // delete
			if err := store.Delete([]byte(k)); err != nil {
				shadow.admit(k, absent)
				failOps++
				consecFails++
				heal()
			} else {
				shadow.collapse(k, absent)
				okOps++
				consecFails = 0
			}
		default: // get (through the hot cache)
			v, err := store.Get([]byte(k))
			switch {
			case err == nil:
				if !shadow.sets[k][string(v)] {
					t.Fatalf("op %d: Get(%s) = %q, not in possibility set %v", i, k, v, keys(shadow.sets[k]))
				}
				shadow.observe(k, string(v))
				okOps++
				consecFails = 0
			case errors.Is(err, kv.ErrNotFound):
				if !shadow.sets[k][absent] {
					t.Fatalf("op %d: Get(%s) reported absent; acked value lost (set %v)", i, k, keys(shadow.sets[k]))
				}
				shadow.collapse(k, absent)
				okOps++
				consecFails = 0
			default:
				failOps++
				consecFails++
				heal()
			}
		}
		if consecFails > 200 {
			t.Fatalf("op %d: store wedged — %d consecutive failures", i, consecFails)
		}
	}

	// Settle: finish any in-flight reshard, heal, final crash cycle.
	settleReshard(true)
	heal()
	mem.Crash()
	_ = store.Close()
	mem.Restart()
	n, err := committedWorkers(ffs, workers)
	if err != nil {
		t.Fatalf("final TOPOLOGY read: %v", err)
	}
	store, err = openTortureStore(ffs, n)
	if err != nil {
		t.Fatalf("final reopen: %v", err)
	}
	shadow.recovered()

	// Every pool key checks against the model, and the observation
	// collapses it for the dump comparison below.
	for _, k := range pool {
		v, err := store.Get([]byte(k))
		switch {
		case err == nil:
			if !shadow.sets[k][string(v)] {
				t.Fatalf("final: Get(%s) = %q, not in %v", k, v, keys(shadow.sets[k]))
			}
			shadow.observe(k, string(v))
		case errors.Is(err, kv.ErrNotFound):
			if !shadow.sets[k][absent] {
				t.Fatalf("final: %s absent; acked value lost (set %v)", k, keys(shadow.sets[k]))
			}
			shadow.collapse(k, absent)
		default:
			t.Fatalf("final: Get(%s): %v", k, err)
		}
	}

	// Byte-identical dump: after the collapse above the model is exact,
	// and the store's global iterator must reproduce it key for key —
	// no missing keys, no leftovers from an aborted or half-cleaned
	// reshard (the router-filtered iterator must hide any stale foreign
	// copy an aborted cleanup left behind).
	want := map[string]string{}
	for k, set := range shadow.sets {
		for v := range set {
			if v != absent {
				want[k] = v
			}
		}
	}
	it, err := store.NewIterator()
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]string{}
	for it.SeekToFirst(); it.Valid(); it.Next() {
		got[string(it.Key())] = string(it.Value())
	}
	if err := it.Error(); err != nil {
		t.Fatal(err)
	}
	it.Close()
	if len(got) != len(want) {
		t.Fatalf("final dump holds %d keys, model says %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("final dump: %s = %q, model says %q", k, got[k], v)
		}
	}

	st := store.ReshardStats()
	t.Logf("%d ok, %d failed, %d crashes, %d/%d reshards committed, %d workers final (epoch %d), %d injected faults",
		okOps, failOps, crashes, reshardsOK, reshardsStarted, store.Workers(), st.Epoch, ffs.InjectedFaults())
	if ffs.InjectedFaults() == 0 {
		t.Fatal("no fault ever fired — the torture exercised nothing")
	}
	if reshardsStarted == 0 {
		t.Fatal("no reshard ever started — the torture exercised nothing")
	}
	if okOps < nOps/2 {
		t.Fatalf("only %d/%d ops succeeded — run dominated by failures", okOps, nOps)
	}
}

// TestFailedTxnLegIsTentative pins the one rule of the model that is about
// the product's contract rather than the engines': a cross-partition Write
// that returns an error after one leg applied leaves that leg readable,
// and the next recovery rolls it back — no acked write is lost, so the
// model must not treat the pre-recovery read as settling the key. (With
// observe collapsing on every read this is the "acked value lost" shape
// TestReshardTorture used to report about once in twelve runs.)
func TestFailedTxnLegIsTentative(t *testing.T) {
	mem := vfs.NewMem()
	ffs := vfs.NewFault(mem)
	store, err := openTortureStore(ffs, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { store.Close() }()

	// One key per worker.
	ring := keyspace.NewConsistent(2, 64)
	var ks [2]string
	for i := 0; ks[0] == "" || ks[1] == ""; i++ {
		k := fmt.Sprintf("key-%03d", i)
		if w := ring.Pick([]byte(k)); ks[w] == "" {
			ks[w] = k
		}
	}
	shadow := newModel(ks[:]...)
	for _, k := range ks {
		if err := store.Put([]byte(k), []byte("base")); err != nil {
			t.Fatal(err)
		}
		shadow.collapse(k, "base")
	}

	// Worker 1's leg fails in its WAL; worker 0's applies.
	ffs.Inject(vfs.Rule{Op: vfs.OpWrite, Path: "inst-01/", CountN: 1, OneShot: true})
	var b kv.Batch
	for _, k := range ks {
		b.Put([]byte(k), []byte("txn"))
	}
	if err := store.Write(&b); err == nil {
		t.Fatal("the batch committed despite the injected leg failure")
	}
	for _, k := range ks {
		shadow.admitTentative(k, "txn")
	}
	check := func(when string) {
		t.Helper()
		for _, k := range ks {
			v, err := store.Get([]byte(k))
			if err != nil {
				t.Fatalf("%s: Get(%s): %v", when, k, err)
			}
			if !shadow.sets[k][string(v)] {
				t.Fatalf("%s: Get(%s) = %q, not in possibility set %v", when, k, v, keys(shadow.sets[k]))
			}
			shadow.observe(k, string(v))
		}
	}
	if v, _ := store.Get([]byte(ks[0])); string(v) != "txn" {
		t.Fatalf("applied leg reads %q before recovery; the scenario needs it visible", v)
	}
	check("before recovery")

	_ = store.Resume()
	mem.Crash()
	_ = store.Close()
	mem.Restart()
	if store, err = openTortureStore(ffs, 2); err != nil {
		t.Fatal(err)
	}
	shadow.recovered()
	if v, _ := store.Get([]byte(ks[0])); string(v) != "base" {
		t.Fatalf("uncommitted leg reads %q after recovery, want the rollback to \"base\"", v)
	}
	check("after recovery")
	for _, k := range ks {
		if len(shadow.sets[k]) != 1 {
			t.Fatalf("post-recovery read left %s ambiguous: %v", k, keys(shadow.sets[k]))
		}
	}
}
