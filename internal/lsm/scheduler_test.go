package lsm

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"p2kvs/internal/ikey"
	"p2kvs/internal/kv"
	"p2kvs/internal/vfs"
)

func TestRangesOverlap(t *testing.T) {
	b := func(s string) []byte {
		if s == "" {
			return nil
		}
		return []byte(s)
	}
	cases := []struct {
		alo, ahi, blo, bhi string
		want               bool
	}{
		{"a", "c", "b", "d", true},
		{"a", "c", "c", "d", true}, // inclusive bounds touch
		{"a", "b", "c", "d", false},
		{"c", "d", "a", "b", false},
		{"", "", "x", "y", true},  // open range overlaps everything
		{"", "b", "c", "", false}, // half-open, disjoint
		{"", "c", "b", "", true},  // half-open, overlapping
	}
	for _, c := range cases {
		if got := rangesOverlap(b(c.alo), b(c.ahi), b(c.blo), b(c.bhi)); got != c.want {
			t.Errorf("rangesOverlap(%q,%q,%q,%q) = %v, want %v", c.alo, c.ahi, c.blo, c.bhi, got, c.want)
		}
	}
}

func TestJobsConflict(t *testing.T) {
	j := func(level int, lo, hi string, whole bool) *compactionJob {
		var l, h []byte
		if lo != "" {
			l = []byte(lo)
		}
		if hi != "" {
			h = []byte(hi)
		}
		return &compactionJob{level: level, out: level + 1, lo: l, hi: h, wholeLevel: whole}
	}
	cases := []struct {
		name string
		a, b *compactionJob
		want bool
	}{
		{"two L0 jobs always conflict", j(0, "a", "b", false), j(0, "x", "y", false), true},
		{"disjoint level pairs", j(1, "a", "z", false), j(3, "a", "z", false), false},
		{"shared level, overlapping ranges", j(1, "a", "m", false), j(1, "n", "z", false), false},
		{"shared level pair via out", j(1, "a", "m", false), j(2, "b", "c", false), true},
		{"shared level pair, disjoint ranges via out", j(1, "a", "m", false), j(2, "n", "z", false), false},
		{"whole-level job blocks its pair", j(1, "a", "b", true), j(2, "x", "y", false), true},
		{"L0 vs L1 overlapping", j(0, "a", "z", false), j(1, "b", "c", false), true},
		{"L0 vs L2 disjoint pairs", j(0, "a", "z", false), j(2, "b", "c", false), false},
	}
	for _, c := range cases {
		if got := jobsConflict(c.a, c.b); got != c.want {
			t.Errorf("%s: jobsConflict = %v, want %v", c.name, got, c.want)
		}
		if got := jobsConflict(c.b, c.a); got != c.want {
			t.Errorf("%s (swapped): jobsConflict = %v, want %v", c.name, got, c.want)
		}
	}
}

// checkLeveledInvariant asserts levels >= 1 hold non-overlapping files
// under leveled compaction — the invariant concurrent installs must not
// break.
func checkLeveledInvariant(t *testing.T, d *DB) {
	t.Helper()
	d.mu.Lock()
	v := d.vs.Current()
	d.mu.Unlock()
	for level := 1; level < len(v.Levels); level++ {
		files := v.Levels[level]
		for i := 1; i < len(files); i++ {
			prevHi := ikey.UserKey(files[i-1].Largest)
			lo := ikey.UserKey(files[i].Smallest)
			if bytes.Compare(lo, prevHi) <= 0 {
				t.Fatalf("level %d files overlap: %q..%q then %q..%q",
					level, ikey.UserKey(files[i-1].Smallest), prevHi, lo, ikey.UserKey(files[i].Largest))
			}
		}
	}
}

// TestParallelCompactionStress drives concurrent writers and readers
// against a tiny-budget instance with an aggressive scheduler, then
// verifies every key's final value and the leveled invariant. Run under
// -race this doubles as the scheduler's race test.
func TestParallelCompactionStress(t *testing.T) {
	o := smallOpts(vfs.NewMem())
	o.L0CompactionTrigger = 2
	o.L0SlowdownTrigger = 4
	o.L0StallTrigger = 8
	db, err := Open("db", o)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	const writers, keysPer, rounds = 4, 200, 4
	var writeWG, readWG sync.WaitGroup
	errCh := make(chan error, writers+2)
	for w := 0; w < writers; w++ {
		writeWG.Add(1)
		go func(w int) {
			defer writeWG.Done()
			for r := 0; r < rounds; r++ {
				for i := 0; i < keysPer; i++ {
					k := []byte(fmt.Sprintf("w%d-key-%04d", w, i))
					v := []byte(fmt.Sprintf("v-r%d-%s", r, strings.Repeat("x", 100)))
					if err := db.Put(k, v); err != nil {
						errCh <- err
						return
					}
				}
			}
		}(w)
	}
	stopRead := make(chan struct{})
	readWG.Add(1)
	go func() {
		defer readWG.Done()
		rng := rand.New(rand.NewSource(1))
		for {
			select {
			case <-stopRead:
				return
			default:
			}
			k := []byte(fmt.Sprintf("w%d-key-%04d", rng.Intn(writers), rng.Intn(keysPer)))
			if _, err := db.Get(k); err != nil && err != kv.ErrNotFound {
				errCh <- fmt.Errorf("concurrent Get(%s): %w", k, err)
				return
			}
		}
	}()

	writeWG.Wait()
	close(stopRead)
	readWG.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}

	if err := db.CompactAll(); err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("v-r%d-%s", rounds-1, strings.Repeat("x", 100))
	for w := 0; w < writers; w++ {
		for i := 0; i < keysPer; i++ {
			k := []byte(fmt.Sprintf("w%d-key-%04d", w, i))
			v, err := db.Get(k)
			if err != nil {
				t.Fatalf("Get(%s): %v", k, err)
			}
			if string(v) != want {
				t.Fatalf("Get(%s) = %q, want %q", k, v, want)
			}
		}
	}
	checkLeveledInvariant(t, db)
	p := db.CompactionStats()
	t.Logf("compactions=%d concurrent_hw=%d stall=%dus slowdown=%dus (%d)",
		p.Compactions, p.MaxConcurrent, p.StallUs, p.SlowdownUs, p.Slowdowns)
	if p.Compactions == 0 {
		t.Fatal("stress run never compacted")
	}
}

// sstFiles lists the tables in the instance directory "db".
func sstFiles(t *testing.T, fs vfs.FS) map[string]bool {
	t.Helper()
	names, err := fs.List("db")
	if err != nil {
		t.Fatal(err)
	}
	set := map[string]bool{}
	for _, n := range names {
		if strings.HasSuffix(n, ".sst") {
			set[n] = true
		}
	}
	return set
}

// TestMergeFilesCleanupOnError is the regression test for the mid-merge
// leak: a compaction, or a flush, that fails while writing tables must
// close its file handles and leave no orphan SSTs behind (writeTables).
func TestMergeFilesCleanupOnError(t *testing.T) {
	// Every SST write fails: the job dies mid-flight, after possibly
	// finishing one or more outputs.
	fault := vfs.Rule{Op: vfs.OpWrite, Path: ".sst", Prob: 1}
	t.Run("compaction", func(t *testing.T) {
		mem := vfs.NewMem()
		ffs := vfs.NewFault(mem)
		db, err := Open("db", manualOpts(smallOpts(ffs)))
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()

		for batch := 0; batch < 3; batch++ {
			for i := 0; i < 300; i++ {
				k := fmt.Sprintf("key-%04d", i)
				if err := db.Put([]byte(k), []byte(fmt.Sprintf("val-%d-%04d", batch, i))); err != nil {
					t.Fatal(err)
				}
			}
			if err := db.Flush(); err != nil {
				t.Fatal(err)
			}
		}
		before := sstFiles(t, ffs)

		ffs.Inject(fault)
		if err := db.CompactRange(nil, nil); err == nil {
			t.Fatal("CompactRange succeeded despite injected SST write faults")
		}
		ffs.ClearRules()

		after := sstFiles(t, ffs)
		for n := range after {
			if !before[n] {
				t.Fatalf("failed compaction leaked output %s (before=%v after=%v)", n, before, after)
			}
		}
		for n := range before {
			if !after[n] {
				t.Fatalf("failed compaction deleted input %s before install", n)
			}
		}

		// The engine must still work: same merge, no faults.
		if err := db.CompactRange(nil, nil); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 300; i++ {
			k := fmt.Sprintf("key-%04d", i)
			v, err := db.Get([]byte(k))
			if err != nil || !strings.HasPrefix(string(v), "val-2-") {
				t.Fatalf("Get(%s) = %q, %v after recovery", k, v, err)
			}
		}
	})
	t.Run("flush", func(t *testing.T) {
		ffs := vfs.NewFault(vfs.NewMem())
		db, err := Open("db", faultOpts(ffs))
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		putN(t, db, 300)

		// Every attempt fails until the retry budget degrades the engine.
		ffs.Inject(fault)
		if err := db.Flush(); err == nil {
			t.Fatal("Flush succeeded despite injected SST write faults")
		}
		ffs.ClearRules()
		if leaked := sstFiles(t, ffs); len(leaked) > 0 {
			t.Fatalf("failed flush leaked %v", leaked)
		}

		// The memtable is still queued: the flush lands once resumed.
		if err := db.Resume(); err != nil {
			t.Fatal(err)
		}
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
		if n := len(sstFiles(t, ffs)); n != 1 {
			t.Fatalf("%d tables after the flush, want 1", n)
		}
		checkN(t, db, 300)
	})
}

// TestCompactRangeFragmentedKeepsNextLevel verifies the fragmented
// CompactRange fix: a manual L0 compaction under the fragmented style
// must append to L1 without rewriting L1's existing files, and must not
// drop tombstones while the output level is non-empty.
func TestCompactRangeFragmentedKeepsNextLevel(t *testing.T) {
	o := manualOpts(smallOpts(vfs.NewMem()))
	o.Style = Fragmented
	db, err := Open("db", o)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	put := func(gen int, n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			k := fmt.Sprintf("key-%04d", i)
			if err := db.Put([]byte(k), []byte(fmt.Sprintf("gen%d-%04d", gen, i))); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
	}

	// Generation 0 into L1 via a first manual pass (L1 starts empty).
	put(0, 200)
	job, err := db.claimManualJob(0, nil, nil)
	if err != nil || job == nil {
		t.Fatalf("claimManualJob #1 = %v, %v", job, err)
	}
	if !job.wholeLevel || job.lower != nil {
		t.Fatalf("fragmented job #1 has lower=%v wholeLevel=%v", job.lower, job.wholeLevel)
	}
	if err := db.execJob(job); err != nil {
		t.Fatal(err)
	}
	db.finishJob(job)

	db.mu.Lock()
	l1Before := map[uint64]bool{}
	for _, f := range db.vs.Current().Levels[1] {
		l1Before[f.Num] = true
	}
	db.mu.Unlock()
	if len(l1Before) == 0 {
		t.Fatal("setup failed: L1 empty after first manual compaction")
	}

	// Generation 1 overwrites plus a tombstone, flushed to L0; the second
	// manual pass lands beside generation 0 in L1.
	put(1, 200)
	if err := db.Delete([]byte("key-0000")); err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	job, err = db.claimManualJob(0, nil, nil)
	if err != nil || job == nil {
		t.Fatalf("claimManualJob #2 = %v, %v", job, err)
	}
	if !job.wholeLevel {
		t.Fatal("manual L0 job not fragmented under Fragmented style")
	}
	if job.lower != nil {
		t.Fatalf("fragmented manual job would rewrite %d next-level files", len(job.lower))
	}
	if job.dropTombs {
		t.Fatal("fragmented manual job would drop tombstones with a non-empty output level")
	}
	if err := db.execJob(job); err != nil {
		t.Fatal(err)
	}
	db.finishJob(job)

	// The write-once invariant: every pre-existing L1 file survived.
	db.mu.Lock()
	l1After := map[uint64]bool{}
	for _, f := range db.vs.Current().Levels[1] {
		l1After[f.Num] = true
	}
	db.mu.Unlock()
	for num := range l1Before {
		if !l1After[num] {
			t.Fatalf("fragmented manual compaction rewrote pre-existing L1 file %06d", num)
		}
	}
	if len(l1After) <= len(l1Before) {
		t.Fatal("second compaction appended nothing to L1")
	}

	// Newest generation wins; the tombstone still masks key-0000.
	if _, err := db.Get([]byte("key-0000")); err != kv.ErrNotFound {
		t.Fatalf("tombstoned key resurfaced: err=%v", err)
	}
	for i := 1; i < 200; i++ {
		k := fmt.Sprintf("key-%04d", i)
		v, err := db.Get([]byte(k))
		if err != nil || !strings.HasPrefix(string(v), "gen1-") {
			t.Fatalf("Get(%s) = %q, %v; want gen1", k, v, err)
		}
	}
}

// TestFragmentedCompactionPickerKeepsNextLevel checks the write-once rule
// on the job the background picker builds: under the PebblesDB preset an
// L0 job over a non-empty L1 merges the whole of L0 among itself, rewrites
// no L1 file and keeps its tombstones.
func TestFragmentedCompactionPickerKeepsNextLevel(t *testing.T) {
	db, err := Open("db", manualOpts(presets(vfs.NewMem())["pebblesdb"]))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	put := func(gen int) {
		t.Helper()
		for i := 0; i < 200; i++ {
			if err := db.Put([]byte(fmt.Sprintf("key-%04d", i)), []byte(fmt.Sprintf("gen%d-%04d", gen, i))); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	pick := func() *compactionJob {
		db.mu.Lock()
		defer db.mu.Unlock()
		return db.buildJobLocked(db.vs.Current(), 0)
	}

	put(0)
	job := pick()
	if job == nil {
		t.Fatal("picker built no L0 job")
	}
	db.mu.Lock()
	db.startJobLocked(job)
	db.mu.Unlock()
	err = db.execJob(job)
	db.finishJob(job)
	if err != nil {
		t.Fatal(err)
	}
	if db.Metrics().LevelFiles[1] == 0 {
		t.Fatal("setup failed: L1 empty after the first compaction")
	}

	put(1)
	if err := db.Delete([]byte("key-0000")); err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	job = pick()
	switch {
	case job == nil:
		t.Fatal("picker built no L0 job")
	case !job.wholeLevel:
		t.Fatal("picked L0 job is not whole-level under the Fragmented style")
	case job.lower != nil:
		t.Fatalf("picked fragmented job would rewrite %d L1 files", len(job.lower))
	case job.dropTombs:
		t.Fatal("picked fragmented job would drop tombstones with a non-empty output level")
	}
}

// TestCloseWaitsForManualCompaction is the regression test for a Close
// that returned while a CompactRange job was still merging: the job's
// install then met the closed MANIFEST, whose fallback rewrite shrank the
// MANIFEST and deleted the job's outputs after Close had returned.
func TestCloseWaitsForManualCompaction(t *testing.T) {
	mem := vfs.NewMem()
	ffs := vfs.NewFault(mem)
	db, err := Open("db", manualOpts(smallOpts(ffs)))
	if err != nil {
		t.Fatal(err)
	}
	val := strings.Repeat("v", 100)
	for batch := 0; batch < 3; batch++ {
		for i := 0; i < 400; i++ {
			if err := db.Put([]byte(fmt.Sprintf("key-%04d", i)), []byte(fmt.Sprintf("%s-%d", val, batch))); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	list := func() []string {
		names, err := mem.List("db")
		if err != nil {
			t.Fatal(err)
		}
		return names
	}
	// files snapshots the directory: name -> contents.
	files := func() map[string]string {
		out := map[string]string{}
		for _, n := range list() {
			b, err := vfs.ReadFile(mem, "db/"+n)
			if err != nil {
				t.Fatal(err)
			}
			out[n] = string(b)
		}
		return out
	}
	ssts := func() int {
		n := 0
		for _, name := range list() {
			if strings.HasSuffix(name, ".sst") {
				n++
			}
		}
		return n
	}
	inputs := ssts()

	// Every SST write now takes 2 ms, so the merge is still writing its
	// outputs when Close starts.
	ffs.Inject(vfs.Rule{Op: vfs.OpWrite, Path: ".sst", DelayOnly: true, Delay: 2 * time.Millisecond})
	done := make(chan error, 1)
	go func() { done <- db.CompactRange(nil, nil) }()
	for deadline := time.Now().Add(5 * time.Second); ssts() == inputs; time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatal("the manual compaction never created an output")
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	atClose := files()
	if err := <-done; err != nil && err != kv.ErrClosed {
		t.Errorf("CompactRange = %v", err)
	}
	after := files()
	for name, b := range atClose {
		if a, ok := after[name]; !ok {
			t.Errorf("%s was deleted after Close returned", name)
		} else if a != b {
			t.Errorf("%s changed after Close returned: %d bytes, then %d", name, len(b), len(a))
		}
	}
	for name := range after {
		if _, ok := atClose[name]; !ok {
			t.Errorf("%s was created after Close returned", name)
		}
	}

	ffs.ClearRules()
	db, err = Open("db", manualOpts(smallOpts(ffs)))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for i := 0; i < 400; i++ {
		k := fmt.Sprintf("key-%04d", i)
		if v, err := db.Get([]byte(k)); err != nil || string(v) != val+"-2" {
			t.Fatalf("Get(%s) = %q, %v after reopen", k, v, err)
		}
	}
}

// TestCompactRangeFragmentedEndToEnd drives the public CompactRange on a
// fragmented instance and checks correctness of the final state.
func TestCompactRangeFragmentedEndToEnd(t *testing.T) {
	o := smallOpts(vfs.NewMem())
	o.Style = Fragmented
	db, err := Open("db", o)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for gen := 0; gen < 3; gen++ {
		for i := 0; i < 300; i++ {
			if err := db.Put([]byte(fmt.Sprintf("key-%04d", i)), []byte(fmt.Sprintf("g%d-%04d", gen, i))); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := db.CompactRange(nil, nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		k := fmt.Sprintf("key-%04d", i)
		v, err := db.Get([]byte(k))
		if err != nil || !strings.HasPrefix(string(v), "g2-") {
			t.Fatalf("Get(%s) = %q, %v; want g2", k, v, err)
		}
	}
}

// TestSlowdownBackpressure checks the soft tier fires without the hard
// tier: with compaction effectively disabled and the stall trigger out of
// reach, L0 growth must produce slowdown time but zero stall time.
func TestSlowdownBackpressure(t *testing.T) {
	o := smallOpts(vfs.NewMem())
	o.L0CompactionTrigger = 100 // compaction never scheduled
	o.L0SlowdownTrigger = 2
	o.L0StallTrigger = 100 // hard stall out of reach
	o.MaxImmutables = 100  // flush queue never stalls
	db, err := Open("db", o)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	val := strings.Repeat("v", 256)
	for i := 0; i < 400; i++ {
		if err := db.Put([]byte(fmt.Sprintf("key-%06d", i)), []byte(val)); err != nil {
			t.Fatal(err)
		}
	}
	// Push past the slowdown trigger: every flush adds an L0 file.
	for db.Metrics().LevelFiles[0] < 4 {
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 100; i++ {
			if err := db.Put([]byte(fmt.Sprintf("key2-%06d", i)), []byte(val)); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < 200; i++ {
		if err := db.Put([]byte(fmt.Sprintf("key3-%06d", i)), []byte(val)); err != nil {
			t.Fatal(err)
		}
	}
	p := db.CompactionStats()
	if p.SlowdownUs <= 0 || p.Slowdowns == 0 {
		t.Fatalf("no slowdown recorded: time=%dus count=%d (L0=%d)", p.SlowdownUs, p.Slowdowns, db.Metrics().LevelFiles[0])
	}
	if p.StallUs != 0 {
		t.Fatalf("hard stall fired below the stall trigger: %dus", p.StallUs)
	}
}

// TestConcurrentCompactionsObserved asserts the scheduler genuinely runs
// jobs in parallel on a multi-level store: the high-water mark must reach
// the pool's 2 under continuous write pressure.
func TestConcurrentCompactionsObserved(t *testing.T) {
	o := smallOpts(vfs.NewMem())
	o.L0CompactionTrigger = 2
	o.L0SlowdownTrigger = 6
	o.L0StallTrigger = 12
	o.MemTableSize = 8 << 10
	o.BaseLevelSize = 16 << 10 // deeper levels overflow quickly
	o.TargetFileSize = 8 << 10
	db, err := Open("db", o)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	rng := rand.New(rand.NewSource(42))
	val := strings.Repeat("x", 200)
	deadline := time.Now().Add(10 * time.Second)
	for db.CompactionStats().MaxConcurrent < 2 && time.Now().Before(deadline) {
		for i := 0; i < 500; i++ {
			k := fmt.Sprintf("key-%06d", rng.Intn(20000))
			if err := db.Put([]byte(k), []byte(val)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if hw := db.CompactionStats().MaxConcurrent; hw < 2 {
		t.Fatalf("concurrency high-water = %d, want >= 2", hw)
	}
	checkLeveledInvariant(t, db)
}
