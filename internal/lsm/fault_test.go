package lsm

import (
	"fmt"
	"testing"

	"p2kvs/internal/vfs"
	"p2kvs/internal/wal"
)

func newTestWAL(f vfs.File) *wal.Writer {
	return wal.NewWriter(f, wal.Options{Policy: wal.PolicyCommit})
}

// TestSyncFailureSurfacesToWriter: with synchronous durability, an
// injected fsync failure must fail the triggering write, not be
// swallowed.
func TestSyncFailureSurfacesToWriter(t *testing.T) {
	fs := vfs.NewFault(vfs.NewMem())
	opts := smallOpts(fs)
	opts.WALSync = wal.PolicyCommit
	db, _ := Open("db", opts)
	defer db.Close()
	if err := db.Put([]byte("ok"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	fs.Inject(vfs.Rule{Op: vfs.OpSync, Path: ".log", CountN: 1, OneShot: true})
	if err := db.Put([]byte("doomed"), []byte("v")); err == nil {
		t.Fatal("write must fail when its commit sync fails")
	}
	// The engine stays usable for subsequent writes: the tainted WAL was
	// rotated away.
	if err := db.Put([]byte("after"), []byte("v")); err != nil {
		t.Fatalf("engine wedged after sync failure: %v", err)
	}
}

// TestFlushErrorPoisonsEngine: an IO failure in the background flush must
// surface as a background error that fails subsequent writes instead of
// silently losing the memtable.
func TestFlushErrorPoisonsEngine(t *testing.T) {
	fs := vfs.NewMem()
	opts := smallOpts(fs)
	opts.MemTableSize = 4 << 10
	db, _ := Open("db", opts)
	defer db.Close()

	// Freeze the filesystem so the next flush's SST write fails, while
	// foreground WAL appends also fail. Writes must start erroring.
	fs.Crash()
	var sawErr bool
	for i := 0; i < 500; i++ {
		if err := db.Put([]byte(fmt.Sprintf("k%04d", i)), make([]byte, 64)); err != nil {
			sawErr = true
			break
		}
	}
	fs.Restart()
	if !sawErr {
		t.Fatal("no error surfaced while the filesystem was down")
	}
}

// TestReopenDropsUnreferencedTables: a flush whose table is finished but
// whose MANIFEST edit never lands — nor the MANIFEST rewrite after which it
// would delete the table — leaves a table nothing references. A crash then,
// and reopening must delete it (and every such table) while keeping the
// data, which recovery replays from the WAL.
func TestReopenDropsUnreferencedTables(t *testing.T) {
	mem := vfs.NewMem()
	fs := vfs.NewFault(mem)
	opts := faultOpts(fs)
	opts.WALSync = wal.PolicyCommit
	db, err := Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	putN(t, db, 50)
	fs.Inject(vfs.Rule{Op: vfs.OpWrite, Path: "MANIFEST"})
	if err := db.Flush(); err == nil {
		t.Fatal("flush succeeded without its MANIFEST edit")
	}
	if len(sstFiles(t, mem)) == 0 {
		t.Fatal("the failed flush left no table behind: nothing to check")
	}
	mem.Crash()
	db.Close()
	mem.Restart()
	fs.ClearRules()

	db2, err := Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	checkN(t, db2, 50)
	live := map[string]bool{}
	for _, level := range db2.vs.Current().Levels {
		for _, fm := range level {
			live[fmt.Sprintf("%06d.sst", fm.Num)] = true
		}
	}
	for n := range sstFiles(t, mem) {
		if !live[n] {
			t.Errorf("reopen left unreferenced table %s", n)
		}
	}
}

// TestCorruptManifestRejected: a manifest whose tail record decodes to a
// bogus tag must fail open rather than silently produce an empty store.
func TestCorruptManifestRejected(t *testing.T) {
	fs := vfs.NewMem()
	db, _ := Open("db", smallOpts(fs))
	db.Put([]byte("k"), []byte("v"))
	db.Flush()
	db.Close()

	// Overwrite MANIFEST with a record whose payload is garbage. The WAL
	// framing (crc) is valid, so the corruption must be caught by the
	// edit decoder.
	f, err := fs.Open("db/MANIFEST")
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	nf, _ := fs.Create("db/MANIFEST")
	// Valid wal record framing around an invalid edit: tag 99.
	w := newTestWAL(nf)
	w.Append(0, []byte{99})
	w.Close()

	if _, err := Open("db", smallOpts(fs)); err == nil {
		t.Fatal("corrupt manifest must fail open")
	}
}
