package reshard

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"p2kvs/internal/vfs"
)

func TestTopologyRoundTrip(t *testing.T) {
	fs := vfs.NewMem()
	if tp, err := LoadTopology(fs, "db/txn"); err != nil || tp != nil {
		t.Fatalf("absent topology: got %+v, %v; want nil, nil", tp, err)
	}
	want := Topology{Workers: 5, PrevWorkers: 4, Epoch: 3, State: TopologyCleanup}
	if err := SaveTopology(fs, "db/txn", want); err != nil {
		t.Fatalf("save: %v", err)
	}
	got, err := LoadTopology(fs, "db/txn")
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if *got != want {
		t.Fatalf("round trip: got %+v want %+v", *got, want)
	}
	// Overwrite must be atomic through the same tmp+rename path.
	want2 := Topology{Workers: 5, PrevWorkers: 4, Epoch: 3, State: TopologyActive}
	if err := SaveTopology(fs, "db/txn", want2); err != nil {
		t.Fatalf("re-save: %v", err)
	}
	got, err = LoadTopology(fs, "db/txn")
	if err != nil || *got != want2 {
		t.Fatalf("after re-save: got %+v, %v", got, err)
	}
}

// TestTopologyBytesPinned fixes TOPOLOGY's on-disk bytes: every store
// directory already carries one, so the sealed form must not drift.
func TestTopologyBytesPinned(t *testing.T) {
	fs := vfs.NewMem()
	if err := SaveTopology(fs, "db", Topology{Workers: 5, PrevWorkers: 4, Epoch: 3, State: TopologyCleanup}); err != nil {
		t.Fatal(err)
	}
	got, err := vfs.ReadFile(fs, "db/"+TopologyFile)
	if err != nil {
		t.Fatal(err)
	}
	const want = "c3d7ddc6\n{\"workers\":5,\"prev_workers\":4,\"epoch\":3,\"state\":\"cleanup\"}"
	if string(got) != want {
		t.Fatalf("TOPOLOGY bytes changed:\ngot  %q\nwant %q", got, want)
	}
}

func TestTopologyCorruptionDetected(t *testing.T) {
	fs := vfs.NewMem()
	if err := SaveTopology(fs, "db", Topology{Workers: 4, PrevWorkers: 4, State: TopologyActive}); err != nil {
		t.Fatal(err)
	}
	body, err := vfs.ReadFile(fs, "db/"+TopologyFile)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one payload byte: the CRC must catch it.
	body[len(body)-2] ^= 0x40
	if err := vfs.WriteFile(fs, "db/"+TopologyFile, body); err != nil {
		t.Fatal(err)
	}
	if tp, err := LoadTopology(fs, "db"); !errors.Is(err, vfs.ErrBadSeal) {
		t.Fatalf("corrupt topology: got %+v, %v; want ErrBadSeal", tp, err)
	}
	// Truncated below the header is malformed, not treated as absent.
	if err := vfs.WriteFile(fs, "db/"+TopologyFile, body[:4]); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadTopology(fs, "db"); !errors.Is(err, vfs.ErrBadSeal) {
		t.Fatalf("truncated topology: %v, want ErrBadSeal", err)
	}
}

func TestSeenSetMembershipAndDrops(t *testing.T) {
	s := NewSeenSet()
	key := []byte("k1")
	if s.Seen(key) {
		t.Fatal("empty set reports key as seen")
	}
	s.Record(key)
	s.Record(key) // a second mirror of the same key is one member
	if !s.Seen(key) || !s.Seen(key) {
		t.Fatal("recorded key not seen")
	}
	if s.Seen([]byte("k2")) {
		t.Fatal("unrecorded key seen")
	}
	if s.Len() != 1 || s.Drops() != 2 {
		t.Fatalf("Len = %d, Drops = %d; want 1 member, 2 drops (one per yes)", s.Len(), s.Drops())
	}
}

func TestSeenSetConcurrent(t *testing.T) {
	s := NewSeenSet()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := []byte(fmt.Sprintf("key-%03d", i%100))
				s.Record(k)
				s.Seen(k)
			}
		}(g)
	}
	wg.Wait()
	if s.Len() != 100 {
		t.Fatalf("Len = %d, want 100", s.Len())
	}
}

func TestTrackerLifecycle(t *testing.T) {
	var tr Tracker
	if st := tr.Snapshot().State; st != "idle" {
		t.Fatalf("zero tracker state = %q", st)
	}
	tr.Begin(4, 5, 0)
	if st := tr.Snapshot().State; st != "prepare" || tr.Failed() {
		t.Fatalf("after Begin: state=%q failed=%v", st, tr.Failed())
	}
	tr.SetState(StateCopy)
	tr.Update(func(st *Stats) {
		st.MovedKeys += 10
		st.MovedBytes += 2048
		st.DoubleWrites += 3
		st.SkippedStale += 2
	})
	tr.SetState(StateCutover)
	tr.Update(func(st *Stats) { st.CutoverRetries++; st.BarrierNs = 123456 })
	tr.Complete(1)
	st := tr.Snapshot()
	want := Stats{
		State: "done", Epoch: 1, From: 4, To: 5, Completed: 1,
		MovedKeys: 10, MovedBytes: 2048, DoubleWrites: 3, SkippedStale: 2,
		BarrierNs: 123456, CutoverRetries: 1,
	}
	if st != want {
		t.Fatalf("snapshot:\n got %+v\nwant %+v", st, want)
	}

	// A failed run latches the first error and surfaces it through Abort.
	tr.Begin(5, 6, 1)
	if tr.Snapshot().LastErr != "" {
		t.Fatal("Begin did not clear last error")
	}
	tr.Fail(errors.New("mirror enqueue failed"))
	tr.Fail(errors.New("second error must not win"))
	if !tr.Failed() {
		t.Fatal("failure latch did not trip")
	}
	tr.Abort(nil)
	st = tr.Snapshot()
	if st.State != "aborted" || st.Aborted != 1 || st.LastErr != "mirror enqueue failed" {
		t.Fatalf("after abort: %+v", st)
	}
}

func TestStateStrings(t *testing.T) {
	want := map[State]string{
		StateIdle: "idle", StatePrepare: "prepare", StateCopy: "copy",
		StateCutover: "cutover", StateCleanup: "cleanup", StateDone: "done",
		StateAborted: "aborted", State(99): "unknown",
	}
	for s, label := range want {
		if s.String() != label {
			t.Fatalf("State(%d).String() = %q, want %q", s, s.String(), label)
		}
	}
}
