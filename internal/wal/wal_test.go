package wal

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"p2kvs/internal/kv"
	"p2kvs/internal/vfs"
)

// slowFile delays every write so concurrent appenders overlap and the
// group-commit leader accumulates followers.
type slowFile struct {
	vfs.File
}

func (f *slowFile) Write(p []byte) (int, error) {
	time.Sleep(200 * time.Microsecond)
	return f.File.Write(p)
}

func TestAppendReadRoundTrip(t *testing.T) {
	// Group commit is the one append path; the subtest keeps its name.
	t.Run("group=true", func(t *testing.T) {
		fs := vfs.NewMem()
		f, _ := fs.Create("wal")
		w := NewWriter(f, Options{})
		for i := 0; i < 100; i++ {
			if err := w.Append(uint64(i), []byte(fmt.Sprintf("payload-%d", i))); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		recs, err := ReadAll(fs, "wal")
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != 100 {
			t.Fatalf("replayed %d records, want 100", len(recs))
		}
		for i, r := range recs {
			if r.GSN != uint64(i) || string(r.Payload) != fmt.Sprintf("payload-%d", i) {
				t.Fatalf("record %d = gsn=%d %q", i, r.GSN, r.Payload)
			}
		}
	})
}

func TestConcurrentAppendersAllDurable(t *testing.T) {
	fs := vfs.NewMem()
	f, _ := fs.Create("wal")
	w := NewWriter(f, Options{})
	const (
		goroutines = 16
		perG       = 200
	)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				if err := w.Append(uint64(g*perG+i), []byte(fmt.Sprintf("g%d-i%d", g, i))); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	recs, err := ReadAll(fs, "wal")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != goroutines*perG {
		t.Fatalf("replayed %d, want %d", len(recs), goroutines*perG)
	}
	seen := map[uint64]bool{}
	for _, r := range recs {
		if seen[r.GSN] {
			t.Fatalf("duplicate record gsn=%d", r.GSN)
		}
		seen[r.GSN] = true
	}

	st := w.Stats()
	if st.Appends != goroutines*perG {
		t.Fatalf("appends = %d", st.Appends)
	}
	if st.GroupIOs > st.Appends {
		t.Fatalf("group IOs (%d) exceed appends (%d)", st.GroupIOs, st.Appends)
	}
}

func TestGroupingAggregates(t *testing.T) {
	// With many concurrent appenders on a device slow enough that the
	// leader's IO blocks, group commit must issue fewer IOs than appends
	// (that's the whole point of Figure 3). slowFile injects the delay.
	fs := vfs.NewMem()
	inner, _ := fs.Create("wal")
	f := &slowFile{File: inner}
	w := NewWriter(f, Options{})
	var wg sync.WaitGroup
	for g := 0; g < 32; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				w.Append(uint64(g), []byte("x"))
			}
		}(g)
	}
	wg.Wait()
	st := w.Stats()
	if st.GroupIOs >= st.Appends {
		t.Fatalf("no aggregation happened: %d IOs for %d appends", st.GroupIOs, st.Appends)
	}
	w.Close()
}

// gatedFile parks every write until the test lets it through.
type gatedFile struct {
	vfs.File
	entered chan struct{}
	release chan struct{}
}

func (f *gatedFile) Write(p []byte) (int, error) {
	f.entered <- struct{}{}
	<-f.release
	return f.File.Write(p)
}

// TestFollowersBehindUncontendedLeader: an appender that takes the
// uncontended path is a leader like any other. Two appenders arriving while
// its write is in flight queue behind it; when it finishes the queue head
// leads both as one group and the other is woken as a follower. Every record
// lands once, in arrival order, and the queue keeps its capacity.
func TestFollowersBehindUncontendedLeader(t *testing.T) {
	fs := vfs.NewMem()
	inner, _ := fs.Create("wal")
	f := &gatedFile{File: inner, entered: make(chan struct{}), release: make(chan struct{})}
	w := NewWriter(f, Options{})

	errs := make(chan error, 3)
	appendAsync := func(gsn uint64, payload string) {
		go func() { errs <- w.Append(gsn, []byte(payload)) }()
	}
	queued := func(n int) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(50 * time.Microsecond) {
			w.mu.Lock()
			got := len(w.pending)
			w.mu.Unlock()
			if got == n {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("%d appenders queued, want %d", got, n)
			}
		}
	}

	appendAsync(1, "leader")
	<-f.entered // the leader is inside its write, holding no lock
	appendAsync(2, "head")
	queued(1)
	appendAsync(3, "follower")
	queued(2)
	f.release <- struct{}{} // leader's write
	<-f.entered             // the head now leads {head, follower}
	f.release <- struct{}{}
	for i := 0; i < 3; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}

	if st := w.Stats(); st.GroupIOs != 2 || st.GroupSize != 3 {
		t.Fatalf("%d log writes carrying %d records, want 2 carrying 3", st.GroupIOs, st.GroupSize)
	}
	w.mu.Lock()
	if len(w.pending) != 0 || cap(w.pending) < 2 {
		t.Errorf("queue after the group: len %d cap %d, want empty with its capacity kept", len(w.pending), cap(w.pending))
	}
	w.mu.Unlock()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadAll(fs, "wal")
	if err != nil || len(recs) != 3 {
		t.Fatalf("replayed %d records, %v", len(recs), err)
	}
	for i, want := range []string{"leader", "head", "follower"} {
		if recs[i].GSN != uint64(i+1) || string(recs[i].Payload) != want {
			t.Errorf("record %d = gsn %d %q, want gsn %d %q", i, recs[i].GSN, recs[i].Payload, i+1, want)
		}
	}
}

func TestTornTailIgnored(t *testing.T) {
	fs := vfs.NewMem()
	f, _ := fs.Create("wal")
	w := NewWriter(f, Options{})
	w.Append(1, []byte("complete"))
	w.Close()

	// Append garbage emulating a torn write.
	f2, _ := fs.Open("wal")
	sz, _ := f2.Size()
	raw := make([]byte, sz)
	f2.ReadAt(raw, 0)
	f3, _ := fs.Create("wal2")
	f3.Write(raw)
	f3.Write([]byte{9, 9, 9, 9, 9}) // partial header
	f3.Close()

	recs, err := ReadAll(fs, "wal2")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || string(recs[0].Payload) != "complete" {
		t.Fatalf("recs = %v", recs)
	}
}

// TestCorruptRecordReported: a bit flip inside a COMPLETE record is at-rest
// corruption of committed data, not a crash artifact — replay must return
// the valid prefix plus a kv.CorruptionError, never truncate silently
// (silent truncation of acknowledged records is silent data loss).
func TestCorruptRecordReported(t *testing.T) {
	fs := vfs.NewMem()
	f, _ := fs.Create("wal")
	w := NewWriter(f, Options{})
	w.Append(1, []byte("first"))
	w.Append(2, []byte("second"))
	w.Close()

	rf, _ := fs.Open("wal")
	sz, _ := rf.Size()
	raw := make([]byte, sz)
	rf.ReadAt(raw, 0)
	// Flip a bit in the second record's payload.
	raw[len(raw)-1] ^= 0xff
	f2, _ := fs.Create("wal")
	f2.Write(raw)
	f2.Close()

	recs, err := ReadAll(fs, "wal")
	if !errors.Is(err, kv.ErrCorruption) {
		t.Fatalf("err = %v, want kv.ErrCorruption", err)
	}
	if len(recs) != 1 || string(recs[0].Payload) != "first" {
		t.Fatalf("recs = %+v, want the valid prefix (first record)", recs)
	}
}

func TestAppendAfterClose(t *testing.T) {
	fs := vfs.NewMem()
	f, _ := fs.Create("wal")
	w := NewWriter(f, Options{})
	w.Close()
	if err := w.Append(1, []byte("x")); err == nil {
		t.Fatal("append after close must fail")
	}
	if err := w.Sync(); err == nil {
		t.Fatal("sync after close must fail")
	}
	if err := w.Close(); err != nil {
		t.Fatalf("double close must be nil, got %v", err)
	}
}

// TestSizeDuringAppends: Size may be read while appenders write (lsm's
// Metrics reads it on a live engine). It reports the end of the last
// completed write: never decreasing, always a record boundary.
func TestSizeDuringAppends(t *testing.T) {
	const (
		appenders   = 4
		perAppender = 500
		payloadLen  = 32
	)
	fs := vfs.NewMem()
	f, _ := fs.Create("wal")
	w := NewWriter(f, Options{})
	defer w.Close()
	stop, polled := make(chan struct{}), make(chan error)
	go func() {
		var last int64
		for {
			select {
			case <-stop:
				polled <- nil
				return
			default:
			}
			n := w.Size()
			if n < last || n != 0 && (n-int64(len(magic)))%(headerLen+payloadLen) != 0 {
				polled <- fmt.Errorf("Size() = %d after %d: not a record boundary past the last one", n, last)
				return
			}
			last = n
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < appenders; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perAppender; i++ {
				if err := w.Append(1, make([]byte, payloadLen)); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	if err := <-polled; err != nil {
		t.Fatal(err)
	}
	if got, want := w.Size(), int64(len(magic)+appenders*perAppender*(headerLen+payloadLen)); got != want {
		t.Fatalf("Size() = %d after every append, want %d", got, want)
	}
}

func TestPolicyCommitSurvivesCrash(t *testing.T) {
	fs := vfs.NewMem()
	f, _ := fs.Create("wal")
	w := NewWriter(f, Options{Policy: PolicyCommit})
	w.Append(7, []byte("must-survive"))
	fs.Crash()
	fs.Restart()
	recs, err := ReadAll(fs, "wal")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].GSN != 7 {
		t.Fatalf("synced record lost: %+v", recs)
	}
}

func TestUnsyncedLostOnCrash(t *testing.T) {
	fs := vfs.NewMem()
	f, _ := fs.Create("wal")
	w := NewWriter(f, Options{})
	w.Append(7, []byte("volatile"))
	fs.Crash()
	fs.Restart()
	recs, _ := ReadAll(fs, "wal")
	if len(recs) != 0 {
		t.Fatalf("unsynced record survived crash: %+v", recs)
	}
}

func TestQuickRoundTrip(t *testing.T) {
	fn := func(payloads [][]byte) bool {
		fs := vfs.NewMem()
		f, _ := fs.Create("wal")
		w := NewWriter(f, Options{})
		for i, p := range payloads {
			if w.Append(uint64(i), p) != nil {
				return false
			}
		}
		w.Close()
		recs, err := ReadAll(fs, "wal")
		if err != nil || len(recs) != len(payloads) {
			return false
		}
		for i, r := range recs {
			if r.GSN != uint64(i) || string(r.Payload) != string(payloads[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestStatsLockTimeGrowsWithContention(t *testing.T) {
	fs := vfs.NewMem()
	f, _ := fs.Create("wal")
	w := NewWriter(f, Options{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				w.Append(0, make([]byte, 64))
			}
		}()
	}
	wg.Wait()
	st := w.Stats()
	if st.Bytes != 8*500*64 {
		t.Fatalf("bytes = %d", st.Bytes)
	}
	if st.GroupIOs == 0 || st.GroupSize < st.GroupIOs {
		t.Fatalf("group stats inconsistent: %+v", st)
	}
	w.Close()
}

func TestSoftwareCostModel(t *testing.T) {
	fs := vfs.NewMem()
	f, _ := fs.Create("wal")
	w := NewWriter(f, Options{
		PerRecordCost: 2 * time.Millisecond,
		PerByteCost:   10 * time.Microsecond,
	})
	payload := make([]byte, 100)
	start := time.Now()
	if err := w.Append(0, payload); err != nil {
		t.Fatal(err)
	}
	// One record: >= 2ms flat + ~1.16ms bytes (payload+16B header).
	if el := time.Since(start); el < 2500*time.Microsecond {
		t.Fatalf("cost model charged only %v", el)
	}
	w.Close()

	// Zero-cost writers must not sleep.
	f2, _ := fs.Create("wal2")
	w2 := NewWriter(f2, Options{})
	start = time.Now()
	w2.Append(0, payload)
	if el := time.Since(start); el > time.Millisecond {
		t.Fatalf("zero-cost append slept %v", el)
	}
	w2.Close()
}

// --- format v2 at-rest integrity ---------------------------------------

// readRaw snapshots a written log file.
func readRaw(t *testing.T, fs vfs.FS, name string) []byte {
	t.Helper()
	f, err := fs.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sz, _ := f.Size()
	raw := make([]byte, sz)
	f.ReadAt(raw, 0)
	return raw
}

func writeRaw(t *testing.T, fs vfs.FS, name string, raw []byte) {
	t.Helper()
	f, err := fs.Create(name)
	if err != nil {
		t.Fatal(err)
	}
	f.Write(raw)
	f.Close()
}

func buildLog(t *testing.T, fs vfs.FS, name string, n int) []byte {
	t.Helper()
	f, _ := fs.Create(name)
	w := NewWriter(f, Options{Policy: PolicyCommit})
	for i := 0; i < n; i++ {
		if err := w.Append(uint64(i+1), []byte(fmt.Sprintf("payload-%04d", i))); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	return readRaw(t, fs, name)
}

// TestV2LengthFieldRotReported: rot in a record's length field must be
// reported, never mistaken for a crash-torn tail — that mistake silently
// drops the record and every one after it.
func TestV2LengthFieldRotReported(t *testing.T) {
	fs := vfs.NewMem()
	raw := buildLog(t, fs, "wal", 3)
	// Record 0's length field: magic(8) + hcrc(4)+pcrc(4) = offset 16.
	// Set a high bit so the claimed payload runs far past EOF.
	raw[len(magic)+8+2] ^= 0x80
	writeRaw(t, fs, "wal2", raw)
	recs, err := ReadAll(fs, "wal2")
	if !errors.Is(err, kv.ErrCorruption) {
		t.Fatalf("err = %v, want kv.ErrCorruption", err)
	}
	if len(recs) != 0 {
		t.Fatalf("damaged first record yielded %d records", len(recs))
	}
}

// TestV2GSNRotReported: the GSN drives replay filtering (transaction
// rollback), so rot there must not pass unnoticed either.
func TestV2GSNRotReported(t *testing.T) {
	fs := vfs.NewMem()
	raw := buildLog(t, fs, "wal", 2)
	raw[len(magic)+12] ^= 0x01 // record 0's gsn, lowest byte
	writeRaw(t, fs, "wal2", raw)
	if _, err := ReadAll(fs, "wal2"); !errors.Is(err, kv.ErrCorruption) {
		t.Fatalf("err = %v, want kv.ErrCorruption", err)
	}
}

// TestV2MagicRotReported: damage to the preamble itself is corruption —
// there is no other format for the file to be mistaken for.
func TestV2MagicRotReported(t *testing.T) {
	fs := vfs.NewMem()
	raw := buildLog(t, fs, "wal", 2)
	raw[3] ^= 0x04
	writeRaw(t, fs, "wal2", raw)
	if _, err := ReadAll(fs, "wal2"); !errors.Is(err, kv.ErrCorruption) {
		t.Fatalf("err = %v, want kv.ErrCorruption", err)
	}
}

// TestV2TornPayloadStillTruncates: a verified header whose payload runs
// past EOF is the genuine crash artifact; replay must keep the valid
// prefix and stay silent about the tail.
func TestV2TornPayloadStillTruncates(t *testing.T) {
	fs := vfs.NewMem()
	raw := buildLog(t, fs, "wal", 3)
	writeRaw(t, fs, "wal2", raw[:len(raw)-5]) // tear into the last payload
	recs, err := ReadAll(fs, "wal2")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("replayed %d records, want the 2 intact ones", len(recs))
	}
}
