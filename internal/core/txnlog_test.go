package core

import (
	"errors"
	"fmt"
	"testing"

	"p2kvs/internal/kv"
	"p2kvs/internal/vfs"
	"p2kvs/internal/wal"
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

// TestTxnLogRestartsAtOpen: once every engine has opened, no engine log
// holds a leg from before the Open, so the TXNLOG starts afresh with one
// record, the GSN high-water mark. It stays the size of the commits made
// since the last Open instead of carrying every commit ever made, and GSNs
// keep rising across opens.
func TestTxnLogRestartsAtOpen(t *testing.T) {
	mem := vfs.NewMem()
	open := func() *Store {
		opts := DefaultOptions(lsmFactory(mem, "p2"))
		opts.Workers = 2
		opts.TxnFS = mem
		opts.TxnDir = "p2/txn"
		s, err := Open(opts)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	records := func() []uint64 {
		t.Helper()
		recs, err := wal.ReadAll(mem, "p2/txn/TXNLOG")
		if err != nil {
			t.Fatal(err)
		}
		var gsns []uint64
		for _, r := range recs {
			_, gsn, err := decodeTxnRec(r.Payload)
			if err != nil {
				t.Fatal(err)
			}
			gsns = append(gsns, gsn)
		}
		return gsns
	}
	s := open()
	part := s.route.Load().part
	// write commits one transaction over both workers, a key on each.
	want := map[string]string{}
	write := func(i int, v string) {
		t.Helper()
		var b kv.Batch
		var seen [2]bool
		for j := 0; !seen[0] || !seen[1]; j++ {
			k := fmt.Sprintf("txn%03d-%03d", i, j)
			if w := part.Pick([]byte(k)); !seen[w] {
				seen[w] = true
				b.Put([]byte(k), []byte(v))
				want[k] = v
			}
		}
		if err := s.Write(&b); err != nil {
			t.Fatal(err)
		}
	}
	const n = 50
	for i := 0; i < n; i++ {
		write(i, "first")
	}
	if got := len(records()); got != 1+2*n {
		t.Fatalf("TXNLOG holds %d records after %d transactions, want the high-water mark, then a begin and a commit each", got, n)
	}
	maxGSN := s.gsn.Load()

	// A crash, so the second Open replays the legs through the filter.
	mem.Crash()
	s.Close()
	mem.Restart()
	s = open()
	if got := records(); len(got) != 1 || got[0] != maxGSN {
		t.Fatalf("TXNLOG after reopen holds GSNs %v, want just the high-water mark %d", got, maxGSN)
	}
	write(n, "second")
	if g := s.gsn.Load(); g <= maxGSN {
		t.Fatalf("the first transaction after reopen took GSN %d, not above the old maximum %d", g, maxGSN)
	}
	s.Close()
	s = open()
	defer s.Close()
	if got := records(); len(got) != 1 || got[0] != maxGSN+1 {
		t.Fatalf("TXNLOG after the second reopen holds GSNs %v, want [%d]", got, maxGSN+1)
	}
	for k, w := range want {
		if v, err := s.Get([]byte(k)); err != nil || string(v) != w {
			t.Fatalf("Get(%s) = %q, %v; want %q", k, v, err, w)
		}
	}
}
