package lsm

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"p2kvs/internal/kv"
	"p2kvs/internal/vfs"
)

// repairMap is a stub kv.RepairSource: file base name -> pristine bytes.
type repairMap map[string][]byte

func (m repairMap) Fetch(name string) ([]byte, bool) {
	b, ok := m[name]
	return b, ok
}

// buildCorruptDB fills a fresh DB, flushes it to a single SST, closes it,
// and returns the fault FS, the SST path, its base name, its pristine
// bytes, and the expected key->value map.
func buildCorruptDB(t *testing.T, dir string) (*vfs.FaultFS, string, string, []byte, map[string]string) {
	t.Helper()
	fs := vfs.NewFault(vfs.NewMem())
	db, err := Open(dir, smallOpts(fs))
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string]string)
	// Small enough to stay in one memtable: the test wants exactly one SST.
	for i := 0; i < 80; i++ {
		k := fmt.Sprintf("key-%04d", i)
		v := fmt.Sprintf("value-%04d-%s", i, strings.Repeat("x", 24))
		if err := db.Put([]byte(k), []byte(v)); err != nil {
			t.Fatal(err)
		}
		want[k] = v
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	names, err := fs.List(dir)
	if err != nil {
		t.Fatal(err)
	}
	var sst string
	for _, n := range names {
		if strings.HasSuffix(n, ".sst") {
			if sst != "" {
				t.Fatalf("expected a single SST, found %q and %q", sst, n)
			}
			sst = n
		}
	}
	if sst == "" {
		t.Fatal("no SST produced by flush")
	}
	path := dir + "/" + sst
	pristine, err := vfs.ReadFile(fs, path)
	if err != nil {
		t.Fatal(err)
	}
	return fs, path, sst, pristine, want
}

// TestCorruptSSTParkedAndPersists checks that with no repair source the bad
// file is parked in <dir>/quarantine/ and that a reopened engine still
// fails the file's range with ErrCorruption (not ErrNotExist).
func TestCorruptSSTParkedAndPersists(t *testing.T) {
	fs, path, sst, _, want := buildCorruptDB(t, "db")
	if err := fs.CorruptAt(path, 10); err != nil {
		t.Fatal(err)
	}
	db, err := Open("db", smallOpts(fs))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Get([]byte("key-0000")); !errors.Is(err, kv.ErrCorruption) {
		t.Fatalf("Get = %v, want ErrCorruption", err)
	}
	// Parking runs on an async repair goroutine; wait for it (closing
	// first would make tryRepair bail without parking).
	parked := "db/" + quarantineSubdir + "/" + sst
	deadline := time.Now().Add(5 * time.Second)
	for !fs.Exists(parked) {
		if time.Now().After(deadline) {
			t.Fatalf("corrupt file not parked at %s", parked)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if fs.Exists(path) {
		t.Fatalf("corrupt file still present at %s after parking", path)
	}

	// Reopen: loadQuarantine must re-register the parked file.
	db2, err := Open("db", smallOpts(fs))
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	for k := range want {
		if _, err := db2.Get([]byte(k)); !errors.Is(err, kv.ErrCorruption) {
			t.Fatalf("reopened Get(%q) = %v, want ErrCorruption", k, err)
		}
	}
	if h := db2.Health(); h.QuarantinedFiles != 1 {
		t.Fatalf("reopened QuarantinedFiles = %d, want 1", h.QuarantinedFiles)
	}
}

// TestScrubDetectsAndRepairs corrupts an SST that has never been read,
// verifies a synchronous Scrub finds it without any foreground traffic,
// repairs it from the stub backup, and that reads are whole again.
func TestScrubDetectsAndRepairs(t *testing.T) {
	fs, path, sst, pristine, want := buildCorruptDB(t, "db")
	if err := fs.CorruptAt(path, 10); err != nil {
		t.Fatal(err)
	}
	opts := smallOpts(fs)
	opts.RepairSource = repairMap{sst: pristine}
	db, err := Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	res, err := db.Scrub(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.CorruptionsFound != 1 {
		t.Fatalf("CorruptionsFound = %d, want 1", res.CorruptionsFound)
	}
	if res.FilesRepaired != 1 {
		t.Fatalf("FilesRepaired = %d, want 1", res.FilesRepaired)
	}

	// The quarantine is lifted and every key serves its correct value.
	for k, v := range want {
		got, err := db.Get([]byte(k))
		if err != nil {
			t.Fatalf("Get(%q) after repair: %v", k, err)
		}
		if string(got) != v {
			t.Fatalf("Get(%q) after repair = %q, want %q", k, got, v)
		}
	}
	h := db.Health()
	if h.QuarantinedFiles != 0 {
		t.Fatalf("QuarantinedFiles = %d after repair, want 0", h.QuarantinedFiles)
	}
	if h.RepairedFiles != 1 {
		t.Fatalf("RepairedFiles = %d, want 1", h.RepairedFiles)
	}

	// A second pass over the repaired store is clean.
	res, err = db.Scrub(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.CorruptionsFound != 0 || res.FilesRepaired != 0 {
		t.Fatalf("second scrub = %+v, want clean", res)
	}
	if res.FilesScanned == 0 || res.BytesScanned == 0 {
		t.Fatalf("second scrub scanned nothing: %+v", res)
	}
}

// TestScrubFindsIndexRotInOpenTable: a table that has served a Get keeps
// its index decoded in memory, so rot landing in the index block afterwards
// never reaches a lookup — only a scrub that re-reads the block from the
// device sees it, and repairs the file.
func TestScrubFindsIndexRotInOpenTable(t *testing.T) {
	fs, path, sst, pristine, want := buildCorruptDB(t, "db")
	opts := smallOpts(fs)
	opts.RepairSource = repairMap{sst: pristine}
	db, err := Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if v, err := db.Get([]byte("key-0007")); err != nil || string(v) != want["key-0007"] {
		t.Fatalf("Get = %q, %v", v, err)
	}
	indexOff := binary.LittleEndian.Uint64(pristine[len(pristine)-56+16:])
	if err := fs.CorruptAt(path, int64(indexOff)+3); err != nil {
		t.Fatal(err)
	}

	res, err := db.Scrub(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.CorruptionsFound != 1 || res.FilesRepaired != 1 {
		t.Fatalf("scrub = %+v, want one corruption found and repaired", res)
	}
	if got, err := vfs.ReadFile(fs, path); err != nil || !bytes.Equal(got, pristine) {
		t.Fatalf("file after repair differs from the backup (err %v)", err)
	}
	for k, v := range want {
		if got, err := db.Get([]byte(k)); err != nil || string(got) != v {
			t.Fatalf("Get(%q) after repair = %q, %v", k, got, err)
		}
	}
	res, err = db.Scrub(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.CorruptionsFound != 0 || res.FilesScanned != 1 || res.BytesScanned != int64(len(pristine)) {
		t.Fatalf("second scrub = %+v, want clean, one file of %d bytes", res, len(pristine))
	}
}

// TestReadTriggersAsyncRepair checks the foreground path: a read that hits
// corruption fails loudly, kicks off a background repair, and the store
// heals without operator action.
func TestReadTriggersAsyncRepair(t *testing.T) {
	fs, path, sst, pristine, want := buildCorruptDB(t, "db")
	if err := fs.CorruptAt(path, 10); err != nil {
		t.Fatal(err)
	}
	opts := smallOpts(fs)
	opts.RepairSource = repairMap{sst: pristine}
	db, err := Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	if _, err := db.Get([]byte("key-0000")); !errors.Is(err, kv.ErrCorruption) {
		t.Fatalf("first Get = %v, want ErrCorruption", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		got, err := db.Get([]byte("key-0000"))
		if err == nil {
			if string(got) != want["key-0000"] {
				t.Fatalf("healed Get = %q, want %q", got, want["key-0000"])
			}
			break
		}
		if !errors.Is(err, kv.ErrCorruption) {
			t.Fatal(err)
		}
		if time.Now().After(deadline) {
			t.Fatal("async repair never healed the read")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if h := db.Health(); h.RepairedFiles != 1 {
		t.Fatalf("RepairedFiles = %d, want 1", h.RepairedFiles)
	}
}

// TestRepairRejectsBadBackup: a backup that itself fails verification must
// not be installed; the file is parked instead.
func TestRepairRejectsBadBackup(t *testing.T) {
	fs, path, sst, pristine, _ := buildCorruptDB(t, "db")
	if err := fs.CorruptAt(path, 10); err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), pristine...)
	bad[10] ^= 1 // the backup carries its own flip
	opts := smallOpts(fs)
	opts.RepairSource = repairMap{sst: bad}
	db, err := Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Scrub(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Get([]byte("key-0000")); !errors.Is(err, kv.ErrCorruption) {
		t.Fatalf("Get = %v, want ErrCorruption (bad backup must not install)", err)
	}
	h := db.Health()
	if h.RepairedFiles != 0 {
		t.Fatalf("RepairedFiles = %d, want 0", h.RepairedFiles)
	}
	if h.QuarantinedFiles != 1 {
		t.Fatalf("QuarantinedFiles = %d, want 1", h.QuarantinedFiles)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if !fs.Exists("db/" + quarantineSubdir + "/" + sst) {
		t.Fatal("unrepairable file not parked")
	}
}

// TestCompactionSkipsQuarantined: a compaction job whose inputs include a
// quarantined file must be skipped, not compacted around.
func TestCompactionSkipsQuarantined(t *testing.T) {
	fs := vfs.NewFault(vfs.NewMem())
	db, err := Open("db", smallOpts(fs))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for i := 0; i < 100; i++ {
		if err := db.Put([]byte(fmt.Sprintf("k%04d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	// Quarantine the flushed file by hand, then ask for a manual
	// compaction: it must fail fast with the corruption error rather than
	// rewriting levels around damaged data.
	db.mu.Lock()
	var num uint64
	for _, level := range db.vs.Current().Levels {
		for _, fm := range level {
			num = fm.Num
		}
	}
	db.mu.Unlock()
	if num == 0 {
		t.Fatal("no SST in version")
	}
	db.recordCorruption(num, &kv.CorruptionError{
		File: fmt.Sprintf("%06d.sst", num), Detail: "test",
	})
	if err := db.CompactRange(nil, nil); !errors.Is(err, kv.ErrCorruption) {
		t.Fatalf("CompactRange = %v, want ErrCorruption", err)
	}
}

// TestScanCorruptionIsTypedAndQuarantined: a checksum mismatch met by a scan
// is the same event as one met by Get — kv.ErrCorruption naming the file,
// counted in Health, the file quarantined — not a bare sstable error nobody
// hears about. (Scan readers used to be opened without a name.)
func TestScanCorruptionIsTypedAndQuarantined(t *testing.T) {
	fs, path, sst, _, _ := buildCorruptDB(t, "db")
	if err := fs.CorruptAt(path, 10); err != nil { // inside the first data block
		t.Fatal(err)
	}
	db, err := Open("db", smallOpts(fs))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	it, err := db.NewIterator()
	if err != nil {
		t.Fatal(err)
	}
	for it.SeekToFirst(); it.Valid(); it.Next() {
	}
	err = it.Error()
	it.Close()
	var ce *kv.CorruptionError
	if !errors.Is(err, kv.ErrCorruption) || !errors.As(err, &ce) || ce.File != sst {
		t.Fatalf("scan across a flipped byte: err = %v, want kv.ErrCorruption naming %s", err, sst)
	}
	h := db.Health()
	if h.CorruptionEvents == 0 || h.QuarantinedFiles != 1 || h.LastCorruption == nil {
		t.Fatalf("Health after the scan: %d corruption events, %d quarantined, last %v",
			h.CorruptionEvents, h.QuarantinedFiles, h.LastCorruption)
	}
	// The next scan is refused up front: it would have to cross the file.
	if _, err := db.NewIterator(); !errors.Is(err, kv.ErrCorruption) {
		t.Fatalf("NewIterator over a quarantined file: err = %v, want kv.ErrCorruption", err)
	}
}

// blockingLimiter is a kv.RateLimiter whose first WaitN says so on entered
// and returns once release is closed; later calls pass at once.
type blockingLimiter struct {
	once             sync.Once
	entered, release chan struct{}
}

func (l *blockingLimiter) WaitN(context.Context, int) error {
	l.once.Do(func() {
		close(l.entered)
		<-l.release
	})
	return nil
}

// TestScrubFollowsCompaction: a compaction that runs while a Scrub pass waits
// on its limiter retires every table the pass listed. The pass must go on to
// verify the tables the compaction wrote, not report a store it never read.
func TestScrubFollowsCompaction(t *testing.T) {
	db, err := Open("db", manualOpts(smallOpts(vfs.NewMem())))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for gen := 0; gen < 3; gen++ {
		for i := 0; i < 200; i++ {
			if err := db.Put([]byte(fmt.Sprintf("key-%04d", i)), []byte(fmt.Sprintf("gen%d-%s", gen, strings.Repeat("x", 40)))); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	lim := &blockingLimiter{entered: make(chan struct{}), release: make(chan struct{})}
	var res kv.ScrubResult
	done := make(chan error, 1)
	go func() {
		var err error
		res, err = db.Scrub(context.Background(), lim)
		done <- err
	}()
	<-lim.entered
	if err := db.CompactRange(nil, nil); err != nil {
		t.Fatal(err)
	}
	close(lim.release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	final := 0
	for _, level := range db.rs.Load().ver.Levels {
		final += len(level)
	}
	if final == 0 || res.FilesScanned != int64(final) || res.CorruptionsFound != 0 {
		t.Fatalf("scrub overlapping a compaction: %+v; the final version holds %d tables", res, final)
	}
}
