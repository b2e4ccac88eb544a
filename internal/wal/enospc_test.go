package wal

import (
	"fmt"
	"testing"
	"time"

	"p2kvs/internal/vfs"
)

// TestAppendENOSPCTaints checks the write-path contract under space
// exhaustion: the failed append reports ENOSPC, the log is tainted (a
// torn record may sit on disk), and later appends fail fast.
func TestAppendENOSPCTaints(t *testing.T) {
	fs := vfs.NewFault(vfs.NewMem())
	f, err := fs.Create("wal/000001.log")
	if err != nil {
		t.Fatal(err)
	}
	w := NewWriter(f, Options{})
	if err := w.Append(1, []byte("before")); err != nil {
		t.Fatal(err)
	}
	fs.Inject(vfs.Rule{Op: vfs.OpWrite, NoSpace: true, OneShot: true})
	if err := w.Append(2, []byte("full")); !vfs.IsNoSpace(err) {
		t.Fatalf("append on full disk: got %v, want ENOSPC", err)
	}
	if !w.Tainted() {
		t.Fatal("failed append must taint the log")
	}
	if err := w.Append(3, []byte("after")); err != ErrTainted {
		t.Fatalf("append after taint: got %v, want ErrTainted", err)
	}
}

// TestPolicyCommitENOSPC checks that a failed commit fsync (disk full at
// sync time, after the write landed) fails the append and taints the log:
// the record's durability was never acknowledged.
func TestPolicyCommitENOSPC(t *testing.T) {
	fs := vfs.NewFault(vfs.NewMem())
	f, err := fs.Create("wal/000001.log")
	if err != nil {
		t.Fatal(err)
	}
	w := NewWriter(f, Options{Policy: PolicyCommit})
	fs.Inject(vfs.Rule{Op: vfs.OpSync, NoSpace: true, OneShot: true})
	if err := w.Append(1, []byte("v")); !vfs.IsNoSpace(err) {
		t.Fatalf("append with failing commit sync: got %v, want ENOSPC", err)
	}
	if !w.Tainted() {
		t.Fatal("failed commit sync must taint the log")
	}
}

// TestRotationAfterSpaceFreed is the recovery path: a log dies of ENOSPC
// mid-stream; once space frees, the owner rotates to a fresh log and the
// old log replays exactly the records acked before the exhaustion.
func TestRotationAfterSpaceFreed(t *testing.T) {
	mem := vfs.NewMem()
	fs := vfs.NewQuota(mem, 64)
	f, err := fs.Create("wal/000001.log")
	if err != nil {
		t.Fatal(err)
	}
	w := NewWriter(f, Options{Policy: PolicyCommit})
	if err := w.Append(1, []byte("acked")); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(2, make([]byte, 128)); !vfs.IsNoSpace(err) {
		t.Fatalf("oversized append: got %v, want ENOSPC", err)
	}
	_ = w // tainted; owner must rotate

	fs.SetBudget(1 << 20) // space freed
	f2, err := fs.Create("wal/000002.log")
	if err != nil {
		t.Fatalf("rotation after space freed: %v", err)
	}
	w2 := NewWriter(f2, Options{Policy: PolicyCommit})
	if err := w2.Append(3, []byte("resumed")); err != nil {
		t.Fatalf("append after rotation: %v", err)
	}

	// The dead log replays its acked prefix and nothing after it.
	recs, err := ReadAll(fs, "wal/000001.log")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || string(recs[0].Payload) != "acked" {
		t.Fatalf("old log replay = %v, want exactly the acked record", recs)
	}
}

// TestRotationWhileStillFull mirrors what an engine sees when it tries to
// rotate before space is freed: the Create itself reports ENOSPC.
func TestRotationWhileStillFull(t *testing.T) {
	fs := vfs.NewQuota(vfs.NewMem(), -1)
	f, err := fs.Create("wal/000001.log")
	if err != nil {
		t.Fatal(err)
	}
	w := NewWriter(f, Options{})
	if err := w.Append(1, make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	fs.SetBudget(16) // the device filled up under us
	if err := w.Append(2, make([]byte, 64)); !vfs.IsNoSpace(err) {
		t.Fatalf("append: got %v, want ENOSPC", err)
	}
	if _, err := fs.Create("wal/000002.log"); !vfs.IsNoSpace(err) {
		t.Fatalf("rotation on full disk: got %v, want ENOSPC", err)
	}
}

// TestSyncPolicyDurability pins down what each policy guarantees at a
// crash, using MemFS's durable-watermark power-failure emulation.
func TestSyncPolicyDurability(t *testing.T) {
	cases := []struct {
		name    string
		opts    Options
		durable bool // acked appends survive Crash()
	}{
		{"never", Options{}, false},
		{"commit", Options{Policy: PolicyCommit}, true},
		// A 1ns interval syncs on (virtually) every append.
		{"interval-tight", Options{Policy: PolicyInterval, SyncEvery: time.Nanosecond}, true},
		// A 1h interval behaves like never within a test's lifetime.
		{"interval-loose", Options{Policy: PolicyInterval, SyncEvery: time.Hour}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mem := vfs.NewMem()
			f, err := mem.Create("db/wal.log")
			if err != nil {
				t.Fatal(err)
			}
			w := NewWriter(f, tc.opts)
			for i := 0; i < 3; i++ {
				if err := w.Append(uint64(i+1), []byte(fmt.Sprintf("rec-%d", i))); err != nil {
					t.Fatal(err)
				}
			}
			mem.Crash()
			mem.Restart()
			recs, err := ReadAll(mem, "db/wal.log")
			if err != nil {
				t.Fatal(err)
			}
			if tc.durable && len(recs) != 3 {
				t.Fatalf("acked records after crash = %d, want 3", len(recs))
			}
			if !tc.durable && len(recs) != 0 {
				t.Fatalf("unsynced records survived crash: %d", len(recs))
			}
		})
	}
}
