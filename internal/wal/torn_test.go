package wal

import (
	"errors"
	"fmt"
	"testing"

	"p2kvs/internal/vfs"
)

// TestTornTailRecovery cuts a WAL record mid-payload with FaultFS
// torn-write injection and asserts (a) the failed append errors out, (b)
// the writer refuses further appends (taint), and (c) replay stops
// cleanly at the last valid record — for both durability modes.
func TestTornTailRecovery(t *testing.T) {
	for _, policy := range []SyncPolicy{PolicyNever, PolicyCommit} {
		t.Run(fmt.Sprintf("policy=%v", policy), func(t *testing.T) {
			mem := vfs.NewMem()
			fs := vfs.NewFault(mem)
			f, err := fs.Create("wal")
			if err != nil {
				t.Fatal(err)
			}
			w := NewWriter(f, Options{Policy: policy})
			if err := w.Append(1, []byte("first-record")); err != nil {
				t.Fatal(err)
			}
			if err := w.Append(2, []byte("second-record")); err != nil {
				t.Fatal(err)
			}

			// Tear the third record: only half of header+payload persists.
			fs.Inject(vfs.Rule{Op: vfs.OpWrite, CountN: 1, OneShot: true, TornWrite: true})
			if err := w.Append(3, []byte("third-record-that-gets-torn")); err == nil {
				t.Fatal("torn append must report failure")
			}
			if !w.Tainted() {
				t.Fatal("writer must be tainted after a failed write")
			}
			if err := w.Append(4, []byte("after-tear")); !errors.Is(err, ErrTainted) {
				t.Fatalf("append on tainted log = %v, want ErrTainted", err)
			}

			// Replay sees exactly the two complete records; the torn tail
			// is silently truncated, not an error and not garbage.
			recs, err := ReadAll(mem, "wal")
			if err != nil {
				t.Fatal(err)
			}
			if len(recs) != 2 {
				t.Fatalf("replayed %d records, want 2", len(recs))
			}
			if recs[0].GSN != 1 || string(recs[0].Payload) != "first-record" ||
				recs[1].GSN != 2 || string(recs[1].Payload) != "second-record" {
				t.Fatalf("replay mismatch: %+v", recs)
			}
		})
	}
}

// TestTornTailGroupCommit is the same property through the leader/follower
// group-logging path: the leader's failure taints the log and parked
// followers get an error instead of a silent drop.
func TestTornTailGroupCommit(t *testing.T) {
	mem := vfs.NewMem()
	fs := vfs.NewFault(mem)
	f, _ := fs.Create("wal")
	w := NewWriter(f, Options{})
	if err := w.Append(1, []byte("good")); err != nil {
		t.Fatal(err)
	}
	fs.Inject(vfs.Rule{Op: vfs.OpWrite, CountN: 1, OneShot: true, TornWrite: true})
	if err := w.Append(2, []byte("torn-group-record")); err == nil {
		t.Fatal("torn group append must fail")
	}
	if err := w.Append(3, []byte("later")); !errors.Is(err, ErrTainted) {
		t.Fatalf("append after taint = %v, want ErrTainted", err)
	}
	recs, err := ReadAll(mem, "wal")
	if err != nil || len(recs) != 1 || recs[0].GSN != 1 {
		t.Fatalf("replay = %v, %v (want the single good record)", recs, err)
	}
}
