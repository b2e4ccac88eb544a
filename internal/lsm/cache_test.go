package lsm

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"p2kvs/internal/vfs"
)

// TestTableCacheOpensOnce: readers that miss one cold table together share
// one open of it — its footer, index and filter are read once — and an open
// that fails reaches every reader waiting on it and is not cached: the next
// miss opens the file again.
func TestTableCacheOpensOnce(t *testing.T) {
	mem := vfs.NewMem()
	db, err := Open("db", RocksDBOptions(mem))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := db.Put(lookupKey(i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	names, err := mem.List("db")
	if err != nil {
		t.Fatal(err)
	}
	var num uint64
	for _, name := range names {
		if _, err := fmt.Sscanf(name, "%06d.sst", &num); err == nil {
			break
		}
	}
	if num == 0 {
		t.Fatalf("no table among %v", names)
	}

	// Every open of a table takes 5 ms, so the readers below pile up on it.
	slow := vfs.NewFault(mem)
	slow.Inject(vfs.Rule{Op: vfs.OpOpen, Path: ".sst", DelayOnly: true, Delay: 5 * time.Millisecond})
	fs := &openCounter{FS: slow}
	c := newTableCache(fs, "db", nil)
	defer c.closeAll()
	const readers = 32
	getAll := func() ([]*tableRef, []error) {
		refs, errs := make([]*tableRef, readers), make([]error, readers)
		var start, done sync.WaitGroup
		start.Add(1)
		for i := range readers {
			done.Add(1)
			go func() {
				defer done.Done()
				start.Wait()
				refs[i], errs[i] = c.get(num)
			}()
		}
		start.Done()
		done.Wait()
		return refs, errs
	}

	// A failed open: every reader waiting on it sees its error. A reader
	// that came too late to wait on it opens the table again, which also
	// shows the error was not cached.
	slow.Inject(vfs.Rule{Op: vfs.OpOpen, Path: ".sst", CountN: 1})
	refs, errs := getAll()
	failed := 0
	for i, err := range errs {
		switch {
		case errors.Is(err, vfs.ErrInjected):
			failed++
		case err != nil || refs[i] == nil:
			t.Fatalf("reader %d: %p, %v; want the injected open error or a reader", i, refs[i], err)
		}
	}
	if want := map[bool]int64{true: 1, false: 2}[failed == readers]; failed == 0 || fs.tables.Load() != want {
		t.Fatalf("%d of %d readers saw the failed open, %d opens; want at least one, and %d opens", failed, readers, fs.tables.Load(), want)
	}
	if failed == readers {
		if c.peek(num) != nil {
			t.Fatal("the failed open left a reader in the cache")
		}
		if _, err := c.get(num); err != nil || fs.tables.Load() != 2 {
			t.Fatalf("get after the failed open = %v after %d opens; want a fresh open", err, fs.tables.Load())
		}
	}

	// Cold again: one open, one reader for all.
	c.closeAll()
	opened := fs.tables.Load()
	refs, errs = getAll()
	for i := range refs {
		if errs[i] != nil || refs[i] == nil || refs[i] != refs[0] {
			t.Fatalf("reader %d: %p, %v; want the one shared reader %p", i, refs[i], errs[i], refs[0])
		}
	}
	if n := fs.tables.Load() - opened; n != 1 {
		t.Errorf("%d readers missing one cold table opened it %d times, want once", readers, n)
	}
}
