package kvell

import (
	"fmt"
	"testing"
	"time"

	"p2kvs/internal/vfs"
)

func open(t *testing.T, fs vfs.FS, workers int) *Store {
	t.Helper()
	s, err := Open("kvell", Options{FS: fs, Workers: workers, CacheBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestInPlaceUpdateReusesSlot(t *testing.T) {
	fs := vfs.NewMem()
	s := open(t, fs, 1)
	defer s.Close()
	key := []byte("key")
	s.Put(key, []byte("v1"))
	w := s.workers[0]
	l1, ok := w.index.Get(key)
	if !ok {
		t.Fatal("index miss")
	}
	s.Put(key, []byte("v2"))
	l2, _ := w.index.Get(key)
	if l1 != l2 {
		t.Fatalf("same-class update moved slots: %+v -> %+v", l1, l2)
	}
	if v, _ := s.Get(key); string(v) != "v2" {
		t.Fatal("update lost")
	}
}

func TestClassMigration(t *testing.T) {
	fs := vfs.NewMem()
	s := open(t, fs, 1)
	defer s.Close()
	key := []byte("key")
	s.Put(key, make([]byte, 50))   // class 128
	s.Put(key, make([]byte, 500))  // class 1024
	s.Put(key, make([]byte, 3000)) // class 4096
	v, err := s.Get(key)
	if err != nil || len(v) != 3000 {
		t.Fatalf("Get after migrations = %d bytes, %v", len(v), err)
	}
	// Old slots must be freed and reusable.
	w := s.workers[0]
	if len(w.slabs[0].free) == 0 {
		t.Fatal("migrated-out slot was not freed")
	}
	if err := s.Put([]byte("other"), make([]byte, 40)); err != nil {
		t.Fatal(err)
	}
	if len(w.slabs[0].free) != 0 {
		t.Fatal("freed slot not reused")
	}
}

func TestOversizedItemRejected(t *testing.T) {
	fs := vfs.NewMem()
	s := open(t, fs, 1)
	defer s.Close()
	if err := s.Put([]byte("big"), make([]byte, 8192)); err == nil {
		t.Fatal("oversized item must be rejected")
	}
}

func TestScanSortedAcrossPartitions(t *testing.T) {
	fs := vfs.NewMem()
	s := open(t, fs, 4)
	defer s.Close()
	for i := 0; i < 500; i++ {
		s.Put([]byte(fmt.Sprintf("k%05d", i)), []byte(fmt.Sprintf("v%d", i)))
	}
	pairs, err := s.Scan([]byte("k00100"), 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 20 {
		t.Fatalf("scan returned %d", len(pairs))
	}
	for i, p := range pairs {
		want := fmt.Sprintf("k%05d", 100+i)
		if string(p.Key) != want {
			t.Fatalf("scan[%d] = %q, want %q", i, p.Key, want)
		}
		if string(p.Value) != fmt.Sprintf("v%d", 100+i) {
			t.Fatalf("scan[%d] value = %q", i, p.Value)
		}
	}
}

// TestMetrics: the key count follows puts and deletes exactly, and a reopen
// rebuilds it from the slabs.
func TestMetrics(t *testing.T) {
	fs := vfs.NewMem()
	s := open(t, fs, 2)
	for i := 0; i < 100; i++ {
		s.Put([]byte(fmt.Sprintf("k%03d", i)), make([]byte, 64))
	}
	s.Delete([]byte("k003"))
	if m := s.Metrics(); m.IndexBytes <= 0 || m.Keys != 99 {
		t.Fatalf("metrics = %+v", m)
	}
	s.Close()
	s = open(t, fs, 2)
	defer s.Close()
	if m := s.Metrics(); m.Keys != 99 {
		t.Fatalf("recovered %d keys, want 99", m.Keys)
	}
}

// TestMetricsBusyTime: BusyNs adds up the time workers spend on requests
// and nothing of the time they wait for one.
func TestMetricsBusyTime(t *testing.T) {
	const perOp, n = 2 * time.Millisecond, 10
	s, err := Open("kvell", Options{FS: vfs.NewMem(), Workers: 2, PerOpCost: perOp})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < n; i++ {
		if err := s.Put([]byte(fmt.Sprintf("k%d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	busy := s.Metrics().BusyNs
	if busy < int64(n*perOp) {
		t.Fatalf("BusyNs = %v after %d requests of %v each", time.Duration(busy), n, perOp)
	}
	time.Sleep(20 * time.Millisecond)
	if idle := s.Metrics().BusyNs - busy; idle != 0 {
		t.Fatalf("idle workers accrued %v of busy time", time.Duration(idle))
	}
}
