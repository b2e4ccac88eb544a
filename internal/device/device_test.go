package device

import (
	"sync"
	"testing"
	"time"

	"p2kvs/internal/vfs"
)

func TestStatsAccounting(t *testing.T) {
	d := New(Null, 1)
	d.Access(Write, 100, true)
	d.Access(Write, 50, false)
	d.Access(Read, 10, false)
	s := d.Stats()
	if s.WriteOps != 2 || s.WrittenBytes != 150 {
		t.Fatalf("write stats = %+v", s)
	}
	if s.ReadOps != 1 || s.ReadBytes != 10 {
		t.Fatalf("read stats = %+v", s)
	}
	if s.SeqWriteOps != 1 || s.SeqWriteBytes != 100 {
		t.Fatalf("seq write stats = %+v", s)
	}
}

func TestAccessChargesTime(t *testing.T) {
	// A profile with 1ms random-read latency must make Access block
	// roughly that long.
	prof := Profile{Name: "t", SeqReadBW: 1e9, SeqWriteBW: 1e9,
		ReadLatency: time.Millisecond, Parallelism: 4}
	d := New(prof, 1)
	start := time.Now()
	d.Access(Read, 128, false)
	if el := time.Since(start); el < 900*time.Microsecond {
		t.Fatalf("random read took %v, want >= ~1ms", el)
	}
	// Sequential reads skip the random latency.
	start = time.Now()
	d.Access(Read, 128, true)
	if el := time.Since(start); el > 500*time.Microsecond {
		t.Fatalf("sequential read took %v, want well under 1ms", el)
	}
}

func TestScaleSpeedsUpDevice(t *testing.T) {
	prof := Profile{Name: "t", SeqReadBW: 1e9, SeqWriteBW: 1e9,
		WriteLatency: 10 * time.Millisecond, Parallelism: 1}
	d := New(prof, 0.01) // 100x faster
	start := time.Now()
	d.Access(Write, 64, false)
	if el := time.Since(start); el > 5*time.Millisecond {
		t.Fatalf("scaled write took %v, want ~100us", el)
	}
}

func TestBandwidthSerialization(t *testing.T) {
	// Two concurrent 1MB transfers on a 100MB/s device must take ~2x the
	// single-transfer time because the transfer lane is shared.
	prof := Profile{Name: "t", SeqReadBW: 100e6, SeqWriteBW: 100e6, Parallelism: 8}
	d := New(prof, 1)
	single := time.Duration(float64(1<<20) / 100e6 * float64(time.Second)) // ~10.5ms

	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			d.Access(Write, 1<<20, true)
		}()
	}
	wg.Wait()
	el := time.Since(start)
	if el < single*3/2 {
		t.Fatalf("2 concurrent transfers took %v, want >= %v (serialized bandwidth)", el, single*3/2)
	}
}

func TestParallelismGateHDD(t *testing.T) {
	// HDD (parallelism 1): two concurrent random IOs serialize on the
	// gate, so total time >= 2 * latency.
	prof := Profile{Name: "t", SeqReadBW: 1e12, SeqWriteBW: 1e12,
		ReadLatency: 2 * time.Millisecond, Parallelism: 1}
	d := New(prof, 1)
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			d.Access(Read, 16, false)
		}()
	}
	wg.Wait()
	if el := time.Since(start); el < 3500*time.Microsecond {
		t.Fatalf("HDD-like device overlapped IOs: %v", el)
	}
}

func TestNVMeOverlapsLatency(t *testing.T) {
	// NVMe-like (parallelism 8): 4 concurrent random IOs overlap their
	// latency phase, total ~1 latency, not 4.
	prof := Profile{Name: "t", SeqReadBW: 1e12, SeqWriteBW: 1e12,
		ReadLatency: 2 * time.Millisecond, Parallelism: 8}
	d := New(prof, 1)
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			d.Access(Read, 16, false)
		}()
	}
	wg.Wait()
	// Serialized would be >= 8ms (4 x 2ms); allow generous scheduler
	// slack under -race while still catching serialization.
	if el := time.Since(start); el > 7500*time.Microsecond {
		t.Fatalf("NVMe-like device serialized latency: %v", el)
	}
}

func TestWrapFSAccounting(t *testing.T) {
	mem := vfs.NewMem()
	d := New(Null, 1)
	fs := WrapFS(mem, d)

	f, err := fs.Create("x")
	if err != nil {
		t.Fatal(err)
	}
	f.Write(make([]byte, 100))
	f.Write(make([]byte, 28))
	buf := make([]byte, 64)
	f.ReadAt(buf, 0)
	f.ReadAt(buf, 64) // sequential continuation
	f.Sync()
	f.Close()

	s := d.Stats()
	if s.WrittenBytes != 128 {
		t.Fatalf("written = %d, want 128", s.WrittenBytes)
	}
	if s.ReadBytes != 128 || s.ReadOps != 2 {
		t.Fatalf("read stats = %+v", s)
	}
	// Sync charges one extra zero-byte write op.
	if s.WriteOps != 3 {
		t.Fatalf("write ops = %d, want 3 (2 writes + sync)", s.WriteOps)
	}
	if !fs.Exists("x") {
		t.Fatal("file missing in inner fs")
	}
}

func TestProfilesSane(t *testing.T) {
	for _, p := range []Profile{NVMe, SATA, HDD} {
		if p.SeqReadBW <= 0 || p.SeqWriteBW <= 0 || p.Parallelism <= 0 {
			t.Fatalf("profile %s has zero fields: %+v", p.Name, p)
		}
	}
	if !(HDD.ReadLatency > SATA.ReadLatency && SATA.ReadLatency > NVMe.ReadLatency) {
		t.Fatal("latency ordering must be HDD > SATA > NVMe")
	}
	if !(NVMe.SeqWriteBW > SATA.SeqWriteBW && SATA.SeqWriteBW > HDD.SeqWriteBW) {
		t.Fatal("bandwidth ordering must be NVMe > SATA > HDD")
	}
}

func TestWriteAtBuffered(t *testing.T) {
	// In-place updates go through the write-back cache: no per-call
	// latency while under the dirty window, but fully accounted.
	mem := vfs.NewMem()
	prof := Profile{Name: "t", SeqReadBW: 1e9, SeqWriteBW: 1e9,
		WriteLatency: 2 * time.Millisecond, SeqLatency: 0, Parallelism: 4}
	d := New(prof, 1)
	fs := WrapFS(mem, d)
	f, _ := fs.Create("slab")
	start := time.Now()
	f.WriteAt(make([]byte, 64), 4096)
	if el := time.Since(start); el > time.Millisecond {
		t.Fatalf("buffered WriteAt blocked %v", el)
	}
	st := d.Stats()
	if st.WriteOps != 1 || st.WrittenBytes != 64 {
		t.Fatalf("WriteAt accounting: %+v", st)
	}
	buf := make([]byte, 64)
	if _, err := f.ReadAt(buf, 4096); err != nil {
		t.Fatal(err)
	}
}

func TestWritebackBackpressure(t *testing.T) {
	// Buffered writes are free until the dirty window fills, then they
	// block at drain rate; Drain (fsync) pays the debt down. The window
	// takes ~16ms to drain, so the full window the blocked write leaves
	// behind survives that write's own sleep overrunning by a few ms on a
	// loaded box.
	prof := Profile{Name: "t", SeqReadBW: 1e9, SeqWriteBW: 1e9, Parallelism: 4}
	d := New(prof, 1)
	d.wbWindow = 16 << 20 // 16 MiB window at 1 GB/s -> ~16ms to drain

	start := time.Now()
	d.WriteBuffered(8 << 20) // half the window: no block
	if el := time.Since(start); el > 500*time.Microsecond {
		t.Fatalf("under-window buffered write blocked %v", el)
	}
	start = time.Now()
	d.WriteBuffered(12 << 20) // 4 MiB over the window: must block ~4ms
	if el := time.Since(start); el < 2*time.Millisecond {
		t.Fatalf("over-window buffered write blocked only %v", el)
	}
	start = time.Now()
	d.Drain()
	if el := time.Since(start); el < 500*time.Microsecond {
		t.Fatalf("drain with full window returned in %v", el)
	}
	st := d.Stats()
	if st.WrittenBytes != (8<<20)+(12<<20) {
		t.Fatalf("writeback accounting: %+v", st)
	}
}
