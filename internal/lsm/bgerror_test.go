package lsm

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"p2kvs/internal/kv"
	"p2kvs/internal/vfs"
)

// faultOpts is smallOpts with manual maintenance and a fast, small retry
// budget so degradation is reachable in test time.
func faultOpts(fs vfs.FS) Options {
	o := manualOpts(smallOpts(fs))
	o.BgMaxRetries = 3
	o.BgBaseBackoff = time.Millisecond
	o.BgMaxBackoff = 4 * time.Millisecond
	return o
}

func putN(t *testing.T, db *DB, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := db.Put([]byte(fmt.Sprintf("key-%04d", i)), []byte(fmt.Sprintf("val-%d", i))); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
}

func checkN(t *testing.T, db *DB, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		v, err := db.Get([]byte(fmt.Sprintf("key-%04d", i)))
		if err != nil || string(v) != fmt.Sprintf("val-%d", i) {
			t.Fatalf("get %d = %q, %v", i, v, err)
		}
	}
}

// TestFlushRetriesTransientFault: a flush whose first attempt fails with a
// transient injected error must be retried and succeed with the memtable
// contents intact — before, during and after (via reopen) the incident.
func TestFlushRetriesTransientFault(t *testing.T) {
	fs := vfs.NewFault(vfs.NewMem())
	db, err := Open("db", faultOpts(fs))
	if err != nil {
		t.Fatal(err)
	}
	putN(t, db, 50)
	fs.Inject(vfs.Rule{Op: vfs.OpCreate, Path: ".sst", CountN: 1, OneShot: true})
	if err := db.Flush(); err != nil {
		t.Fatalf("flush must recover from a transient fault: %v", err)
	}
	h := db.Health()
	if h.State != kv.StateHealthy {
		t.Fatalf("state = %v, want healthy", h.State)
	}
	if h.FlushRetries == 0 {
		t.Fatal("flush succeeded without recording a retry — fault not exercised")
	}
	if h.InjectedFaults == 0 {
		t.Fatal("fault counter not surfaced in Health")
	}
	checkN(t, db, 50)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	// The data must have reached disk, not just memory.
	db2, err := Open("db", faultOpts(fs))
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	checkN(t, db2, 50)
}

// TestFlushRetryExhaustionDegrades: when every retry fails the engine must
// degrade to read-only — writes fail fast with kv.ErrDegraded, reads keep
// serving the un-flushed memtable — and Resume() must restore write
// availability once the fault clears, losing nothing.
func TestFlushRetryExhaustionDegrades(t *testing.T) {
	fs := vfs.NewFault(vfs.NewMem())
	db, err := Open("db", faultOpts(fs))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	putN(t, db, 50)

	fs.Inject(vfs.Rule{Op: vfs.OpCreate, Path: ".sst"}) // persistent fault
	err = db.Flush()
	if !errors.Is(err, kv.ErrDegraded) {
		t.Fatalf("flush err = %v, want ErrDegraded", err)
	}
	if got := db.Health().State; got != kv.StateReadOnly {
		t.Fatalf("state = %v, want read-only", got)
	}
	if err := db.Put([]byte("nope"), []byte("x")); !errors.Is(err, kv.ErrDegraded) {
		t.Fatalf("degraded write err = %v, want ErrDegraded", err)
	}
	// Reads still serve the data stranded in the immutable memtable.
	checkN(t, db, 50)
	if h := db.Health(); h.State != kv.StateReadOnly || h.FlushRetries == 0 {
		t.Fatalf("health = state %v retries %d", h.State, h.FlushRetries)
	}

	// Fault clears; Resume must drain the queue and restore writes.
	fs.ClearRules()
	if err := db.Resume(); err != nil {
		t.Fatal(err)
	}
	if got := db.Health().State; got != kv.StateHealthy {
		t.Fatalf("post-resume state = %v, want healthy", got)
	}
	if err := db.Put([]byte("key-9999"), []byte("back")); err != nil {
		t.Fatalf("post-resume write: %v", err)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	checkN(t, db, 50)
	if v, err := db.Get([]byte("key-9999")); err != nil || string(v) != "back" {
		t.Fatalf("post-resume get = %q, %v", v, err)
	}
}

// TestFailedManifestRepairCostsOneRetry: a torn MANIFEST record taints the
// MANIFEST's log and applyEdit rewrites it; when that rewrite fails too, the
// taint outlives the incident. The next edit must repair the log and land —
// not be refused for the old failure, which under a budget the incident had
// already drawn on degraded the engine after the fault was gone (the
// TestRestoreEquivalenceTorture flake: "wal: log tainted by failed write"
// from a Flush after heal and Resume).
func TestFailedManifestRepairCostsOneRetry(t *testing.T) {
	fs := vfs.NewFault(vfs.NewMem())
	o := faultOpts(fs)
	o.BgMaxRetries = 2
	db, err := Open("db", o)
	if err != nil {
		t.Fatal(err)
	}
	putN(t, db, 50)
	fs.Inject(vfs.Rule{Op: vfs.OpWrite, Path: "MANIFEST", CountN: 1, OneShot: true, TornWrite: true})
	fs.Inject(vfs.Rule{Op: vfs.OpCreate, Path: "MANIFEST.new", CountN: 1, OneShot: true})
	if err := db.Flush(); err != nil {
		t.Fatalf("flush after the incident: %v", err)
	}
	if h := db.Health(); h.State != kv.StateHealthy || h.FlushRetries != 1 || h.InjectedFaults != 2 {
		t.Fatalf("health = state %v, %d flush retries, %d injected faults; want healthy, 1, 2", h.State, h.FlushRetries, h.InjectedFaults)
	}
	checkN(t, db, 50)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := Open("db", faultOpts(fs))
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	checkN(t, db2, 50)
}

// TestBackgroundFlushRetrySucceeds exercises the retry path on the real
// background flush thread.
func TestBackgroundFlushRetrySucceeds(t *testing.T) {
	fs := vfs.NewFault(vfs.NewMem())
	o := smallOpts(fs)
	o.BgBaseBackoff = time.Millisecond
	o.BgMaxBackoff = 4 * time.Millisecond
	db, err := Open("db", o)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	putN(t, db, 200)
	fs.Inject(vfs.Rule{Op: vfs.OpCreate, Path: ".sst", CountN: 1, OneShot: true})
	if err := db.Flush(); err != nil {
		t.Fatalf("background flush must ride out the fault: %v", err)
	}
	if h := db.Health(); h.State != kv.StateHealthy || h.FlushRetries == 0 {
		t.Fatalf("health = %+v", h)
	}
	checkN(t, db, 200)
}

// TestBackgroundCompactionRetry: a compaction whose input read fails
// transiently must be retried by the (still alive) compaction thread.
func TestBackgroundCompactionRetry(t *testing.T) {
	fs := vfs.NewFault(vfs.NewMem())
	o := smallOpts(fs)
	o.BgBaseBackoff = time.Millisecond
	o.BgMaxBackoff = 4 * time.Millisecond
	db, err := Open("db", o)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	// Compaction (not flush) is the only path that re-opens SSTs here, so
	// an open fault targets exactly its first input read.
	fs.Inject(vfs.Rule{Op: vfs.OpOpen, Path: ".sst", CountN: 1, OneShot: true})

	// Build enough L0 files to cross L0CompactionTrigger.
	for round := 0; round < 6; round++ {
		for i := 0; i < 30; i++ {
			k := fmt.Sprintf("key-%02d-%03d", round, i)
			if err := db.Put([]byte(k), []byte("v")); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
	}

	deadline := time.Now().Add(10 * time.Second)
	for {
		h := db.Health()
		if h.CompactRetries > 0 && h.State == kv.StateHealthy {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("compaction did not retry/recover: %+v", h)
		}
		time.Sleep(time.Millisecond)
	}
	if err := db.CompactAll(); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 6; round++ {
		for i := 0; i < 30; i++ {
			k := fmt.Sprintf("key-%02d-%03d", round, i)
			if _, err := db.Get([]byte(k)); err != nil {
				t.Fatalf("get %s: %v", k, err)
			}
		}
	}
}

// TestDegradedErrorChain: the degraded error must expose both the
// sentinel (errors.Is kv.ErrDegraded) and the root cause (errors.Is
// vfs.ErrInjected) for observability.
func TestDegradedErrorChain(t *testing.T) {
	fs := vfs.NewFault(vfs.NewMem())
	db, err := Open("db", faultOpts(fs))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	putN(t, db, 10)
	fs.Inject(vfs.Rule{Op: vfs.OpCreate, Path: ".sst"})
	err = db.Flush()
	if !errors.Is(err, kv.ErrDegraded) || !errors.Is(err, vfs.ErrInjected) {
		t.Fatalf("err %v must wrap both ErrDegraded and ErrInjected", err)
	}
	fs.ClearRules()
}
