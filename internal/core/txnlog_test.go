package core

import (
	"errors"
	"fmt"
	"testing"

	"p2kvs/internal/kv"
	"p2kvs/internal/vfs"
)

// TestTxnLogHealsOnResume: one failed TXNLOG append taints its writer for
// good, so without a heal every later cross-partition write fails until
// the process restarts. Resume replaces the writer; the transactions on
// either side of each tear recover as the protocol says — a torn begin
// applied nothing, a torn commit rolls its applied legs back.
func TestTxnLogHealsOnResume(t *testing.T) {
	mem := vfs.NewMem()
	ffs := vfs.NewFault(mem)
	open := func() *Store {
		opts := DefaultOptions(lsmFactory(ffs, "p2"))
		opts.Workers = 2
		opts.TxnFS = ffs
		opts.TxnDir = "p2/txn"
		s, err := Open(opts)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	s := open()

	// pair(i) is a two-key batch that spans both workers.
	part := s.route.Load().part
	pair := func(i int) [2][]byte {
		var ks [2][]byte
		for j := 0; ks[0] == nil || ks[1] == nil; j++ {
			k := []byte(fmt.Sprintf("pair%d-%03d", i, j))
			if w := part.Pick(k); ks[w] == nil {
				ks[w] = k
			}
		}
		return ks
	}
	write := func(i int, v string) error {
		var b kv.Batch
		for _, k := range pair(i) {
			b.Put(k, []byte(v))
		}
		return s.Write(&b)
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	tear := func(nth int64) {
		ffs.Inject(vfs.Rule{Op: vfs.OpWrite, Path: "TXNLOG", CountN: nth, OneShot: true, TornWrite: true})
	}

	must(write(1, "base"))
	must(write(2, "base"))

	tear(1) // the begin record: no leg is ever issued
	if err := write(1, "torn-begin"); !errors.Is(err, vfs.ErrInjected) {
		t.Fatalf("write over a torn begin = %v, want the injected fault", err)
	}
	if err := write(1, "tainted"); err == nil {
		t.Fatal("a tainted TXNLOG accepted a transaction")
	}
	must(s.Resume())
	must(write(1, "healed")) // fails at a1e88e3: the taint outlives Resume

	tear(2) // the commit record: both legs applied, transaction reported failed
	if err := write(2, "torn-commit"); !errors.Is(err, vfs.ErrInjected) {
		t.Fatalf("write over a torn commit = %v, want the injected fault", err)
	}
	// Atomic recovery, not read isolation: the applied legs are readable
	// until a recovery removes them.
	if v, err := s.Get(pair(2)[0]); err != nil || string(v) != "torn-commit" {
		t.Fatalf("leg of the failed transaction before recovery = %q, %v", v, err)
	}
	must(s.Resume())
	must(write(3, "healed-again"))

	mem.Crash()
	s.Close()
	mem.Restart()
	s = open()
	defer s.Close()
	for i, want := range map[int]string{1: "healed", 2: "base", 3: "healed-again"} {
		for _, k := range pair(i) {
			if v, err := s.Get(k); err != nil || string(v) != want {
				t.Fatalf("after crash: Get(%s) = %q, %v; want %q", k, v, err, want)
			}
		}
	}
}
