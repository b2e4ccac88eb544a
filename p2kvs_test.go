package p2kvs

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"
)

func TestFacadeAllEngines(t *testing.T) {
	for _, engine := range []EngineKind{EngineRocksDB, EngineLevelDB, EnginePebblesDB, EngineWiredTiger, EngineKVell} {
		t.Run(string(engine), func(t *testing.T) {
			s, err := Open(Options{Dir: "db", Workers: 2, Engine: engine, InMemory: true})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			for i := 0; i < 100; i++ {
				k := []byte(fmt.Sprintf("key-%03d", i))
				if err := s.Put(k, k); err != nil {
					t.Fatal(err)
				}
			}
			v, err := s.Get([]byte("key-042"))
			if err != nil || string(v) != "key-042" {
				t.Fatalf("Get = %q %v", v, err)
			}
			if _, err := s.Get([]byte("missing")); err != ErrNotFound {
				t.Fatalf("miss err = %v", err)
			}
			pairs, err := s.Scan([]byte("key-050"), 5)
			if err != nil || len(pairs) != 5 || string(pairs[0].Key) != "key-050" {
				t.Fatalf("scan = %v, %v", pairs, err)
			}
		})
	}
}

func TestFacadeBatchAndRange(t *testing.T) {
	s, err := Open(Options{Dir: "db", Workers: 4, InMemory: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var b Batch
	for i := 0; i < 50; i++ {
		b.Put([]byte(fmt.Sprintf("b-%03d", i)), []byte("v"))
	}
	if err := s.Write(&b); err != nil {
		t.Fatal(err)
	}
	pairs, err := s.Range([]byte("b-010"), []byte("b-019"))
	if err != nil || len(pairs) != 10 {
		t.Fatalf("range = %d pairs, %v", len(pairs), err)
	}
}

func TestFacadeSimulatedDevice(t *testing.T) {
	s, err := Open(Options{
		Dir: "db", Workers: 2, InMemory: true,
		SimulateDevice: "nvme", DeviceScale: 0.01,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if v, err := s.Get([]byte("k")); err != nil || string(v) != "v" {
		t.Fatalf("Get = %q %v", v, err)
	}
}

func TestFacadeLifecycle(t *testing.T) {
	s, err := Open(Options{
		Dir: "db", Workers: 2, InMemory: true,
		Admission:    AdmitReject,
		DrainTimeout: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	ctx := context.Background()
	var put Batch
	put.Put([]byte("k"), []byte("v"))
	if err := s.WriteCtx(ctx, &put); err != nil {
		t.Fatal(err)
	}
	if v, err := s.GetCtx(ctx, []byte("k")); err != nil || string(v) != "v" {
		t.Fatalf("GetCtx = %q %v", v, err)
	}
	if _, err := s.GetCtx(ctx, []byte("nope")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("miss err = %v", err)
	}

	dead, cancel := context.WithCancel(ctx)
	cancel()
	var late Batch
	late.Put([]byte("late"), []byte("v"))
	if err := s.WriteCtx(dead, &late); !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("expired ctx err = %v, want ErrDeadlineExceeded", err)
	}
	if _, err := s.GetCtx(dead, []byte("k")); !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("expired ctx err = %v, want ErrDeadlineExceeded", err)
	}
	if v, err := s.Get([]byte("late")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("expired Put must not apply; Get = %q %v", v, err)
	}

	found := false
	for _, ws := range s.Stats() {
		if ws.Expired > 0 {
			found = true
		}
	}
	if !found {
		t.Fatal("Stats() shows no Expired counts after expired-ctx requests")
	}
}

func TestFacadeValidation(t *testing.T) {
	if _, err := Open(Options{}); err == nil {
		t.Fatal("missing dir must fail")
	}
	if _, err := Open(Options{Dir: "x", InMemory: true, Engine: "bogus"}); err == nil {
		t.Fatal("bogus engine must fail")
	}
	if _, err := Open(Options{Dir: "x", InMemory: true, SimulateDevice: "floppy"}); err == nil {
		t.Fatal("bogus device must fail")
	}
}

// TestFacadeElastic grows an elastic store from 2 to 3 workers online and
// reopens it at the stale count; a non-elastic store opened at 3 workers
// is reopened at 2 the same way. Either directory's recorded count wins
// and every key comes back.
func TestFacadeElastic(t *testing.T) {
	for _, elastic := range []bool{true, false} {
		dir := t.TempDir()
		first := 3
		if elastic {
			first = 2
		}
		s, err := Open(Options{Dir: dir, Workers: first, Elastic: elastic})
		if err != nil {
			t.Fatal(err)
		}
		const n = 300
		for i := 0; i < n; i++ {
			k := []byte(fmt.Sprintf("key-%03d", i))
			if err := s.Put(k, k); err != nil {
				t.Fatal(err)
			}
		}
		if elastic {
			if err := s.Reshard(context.Background(), 3); err != nil {
				t.Fatalf("Reshard: %v", err)
			}
			rs := s.ReshardStats()
			if rs.Completed != 1 || rs.State != "done" {
				t.Fatalf("reshard stats: %+v", rs)
			}
		}
		if got := s.Workers(); got != 3 {
			t.Fatalf("elastic=%v: Workers() = %d", elastic, got)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		// Reopen at 2 workers: the TOPOLOGY file wins and the store comes
		// back at 3 workers with all data.
		s2, err := Open(Options{Dir: dir, Workers: 2, Elastic: elastic})
		if err != nil {
			t.Fatal(err)
		}
		if got := s2.Workers(); got != 3 {
			t.Fatalf("elastic=%v: Workers() after reopen = %d, want 3 (from TOPOLOGY)", elastic, got)
		}
		for i := 0; i < n; i++ {
			k := fmt.Sprintf("key-%03d", i)
			if v, err := s2.Get([]byte(k)); err != nil || string(v) != k {
				t.Fatalf("elastic=%v: Get(%s) after reopen = %q %v", elastic, k, v, err)
			}
		}
		s2.Close()
	}
}

func TestFacadeElasticValidation(t *testing.T) {
	if _, err := Open(Options{Dir: "x", InMemory: true, Elastic: true, ReplBacklogBytes: 1 << 20}); err == nil {
		t.Fatal("Elastic+ReplBacklogBytes must fail")
	}
	s, err := Open(Options{Dir: "x", InMemory: true, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Reshard(context.Background(), 3); !errors.Is(err, ErrReshardUnsupported) {
		t.Fatalf("non-elastic Reshard err = %v", err)
	}
}
