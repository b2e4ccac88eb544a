package loadgen

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"p2kvs"
	"p2kvs/internal/core"
	"p2kvs/internal/device"
	"p2kvs/internal/kv"
	"p2kvs/internal/kvell"
	"p2kvs/internal/lsm"
	"p2kvs/internal/vfs"
)

func TestOutcomeTaxonomy(t *testing.T) {
	wrapped := fmt.Errorf("worker 3: %w", kv.ErrOverloaded)
	for _, c := range []struct {
		err  error
		want Outcome
	}{
		{nil, OK}, {kv.ErrNotFound, OK}, {wrapped, LoadShed}, {kv.ErrDeadlineExceeded, Timeout},
		{kv.ErrCorruption, Corruption}, {kv.ErrClosed, Failed}, {errors.New("boom"), Failed},
	} {
		if got := Classify(c.err); got != c.want {
			t.Errorf("Classify(%v) = %d, want %d", c.err, got, c.want)
		}
	}
	for msg, want := range map[string]Outcome{
		"LOADSHED queue full": LoadShed, "TIMEOUT deadline": Timeout,
		"CORRUPTION block 7": Corruption, "ERR unknown command": Failed, "READONLY replica": Failed,
	} {
		if got := ClassifyReply(msg); got != want {
			t.Errorf("ClassifyReply(%q) = %d, want %d", msg, got, want)
		}
	}

	// Dropped requests never end a run; a loud corruption ends it unless
	// -verify is counting them; anything unclassified always does.
	plain, paranoid := &Tally{}, &Tally{v: &Verifier{}}
	for _, tl := range []*Tally{plain, paranoid} {
		if !tl.Count(OK) || !tl.Count(LoadShed) || !tl.Count(Timeout) || tl.Count(Failed) {
			t.Fatal("OK/LoadShed/Timeout must continue, Failed must stop")
		}
	}
	if plain.Count(Corruption) || !paranoid.Count(Corruption) {
		t.Fatal("Corruption continues only under a Verifier")
	}
	if plain.LoadShed.Load() != 1 || plain.Timeouts.Load() != 1 || plain.Errors.Load() != 2 || paranoid.v.corruptions.Load() != 1 {
		t.Fatalf("tallies: %+v / %+v", plain, paranoid)
	}
}

// storeTarget applies each op to an embedded store, the way dbbench does.
type storeTarget struct{ s *p2kvs.Store }

func (st storeTarget) Do(ops []Op, t *Tally) error {
	for _, op := range ops {
		if err := Exec(st.s, op, 64, 10, t.Hit); !t.Count(Classify(err)) {
			return err
		}
	}
	return nil
}

// TestPreloadIsNotATransaction: a preload batch spans every partition of
// a core store, yet it must commit per partition — nothing reaches the
// transaction log — and every key must land.
func TestPreloadIsNotATransaction(t *testing.T) {
	fs := vfs.NewMem()
	opts := core.DefaultOptions(func(id int, filter func(uint64) bool) (kv.Engine, error) {
		return lsm.OpenWith(fmt.Sprintf("p2/inst-%02d", id), lsm.RocksDBOptions(fs), lsm.OpenOptions{RecoverFilter: filter})
	})
	opts.Workers = 4
	opts.TxnFS, opts.TxnDir = fs, "p2/txn"
	s, err := core.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	txnSize := func() int64 {
		data, err := vfs.ReadFile(fs, "p2/txn/TXNLOG")
		if err != nil {
			t.Fatal(err)
		}
		return int64(len(data))
	}
	opened := txnSize()
	const keys = 2000
	if err := Preload(s, keys, 32); err != nil {
		t.Fatal(err)
	}
	if got := txnSize(); got != opened {
		t.Fatalf("TXNLOG grew from %d to %d bytes: the preload ran as transactions", opened, got)
	}
	for i := uint64(0); i < keys; i += 97 {
		got, err := s.Get(Key(i))
		if err != nil || !bytes.Equal(got, Value(i, 0, 32)) {
			t.Fatalf("key %d: %q, %v", i, got, err)
		}
	}
}

func TestRunAgainstEmbeddedStore(t *testing.T) {
	s, err := p2kvs.Open(p2kvs.Options{Dir: "run-test", Workers: 2, InMemory: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const keys = 500
	if err := Preload(s, keys, 64); err != nil {
		t.Fatal(err)
	}
	v := &Verifier{}
	var opened sync.Map
	for _, mix := range []string{"readrandom", "ycsb-a", "ycsb-e", "ycsb-f", "ycsb-d"} {
		p := Phase{Spec: MustLookup(mix), Ops: 2000, Keys: keys, Threads: 4, Window: 8, ValueSize: 64, Verify: v}
		tally, elapsed, err := Run(p, func(tid int) (Target, error) {
			opened.Store(tid, true)
			return storeTarget{s}, nil
		})
		if err != nil {
			t.Fatalf("%s: %v", mix, err)
		}
		if tally.Ops.Load() != 2000 || tally.Lat.Count() != 4*63 /* 500 ops per thread = 62 windows of 8 and one of 4 */ || elapsed <= 0 {
			t.Fatalf("%s: ops=%d windows=%d", mix, tally.Ops.Load(), tally.Lat.Count())
		}
		line := tally.Line(p, elapsed)
		if !strings.HasPrefix(line, mix) || !strings.Contains(line, "lat(window=8)") || strings.Contains(line, "dropped") {
			t.Fatalf("%s line: %s", mix, line)
		}
		if p.Spec.Read > 0 && tally.Hits.Load() == 0 {
			t.Fatalf("%s: no read hit on a preloaded key space", mix)
		}
	}
	for tid := 0; tid < 4; tid++ {
		if _, ok := opened.Load(tid); !ok {
			t.Fatalf("thread %d never opened its target", tid)
		}
	}
	var out bytes.Buffer
	if !v.Report(&out) || v.reads.Load() == 0 {
		t.Fatalf("verifier: %s", out.String())
	}

	// A silently wrong value is the one outcome that fails the run.
	if err := s.Put(Key(7), Value(8, 0, 64)); err != nil {
		t.Fatal(err)
	}
	tl := &Tally{v: v}
	if err := Exec(s, Op{Type: OpRead, KeyIdx: 7}, 64, 0, tl.Hit); err != nil {
		t.Fatal(err)
	}
	if v.Report(&out) || v.mismatches.Load() != 1 {
		t.Fatal("a value belonging to another key passed -verify")
	}

	// A failing target stops the run and surfaces its error.
	boom := errors.New("boom")
	if _, _, err := Run(Phase{Spec: MustLookup("fillseq"), Ops: 10, Keys: 10, Threads: 2},
		func(int) (Target, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("open error lost: %v", err)
	}
}

// TestExecScansKVellNatively: a scan of n on KVell goes through its own
// Scan, which reads one slot per key of each of its workers' n, not through
// an iterator over the whole store. KVell's scan skips the page cache, so the
// device's read count is the number of slots read.
func TestExecScansKVellNatively(t *testing.T) {
	const keys, workers, n = 2000, 4, 10
	dev := device.New(device.Null, 1)
	s, err := kvell.Open("kvell", kvell.Options{FS: device.WrapFS(vfs.NewMem(), dev), Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := uint64(0); i < keys; i++ {
		if err := s.Put(Key(i), Value(i, 0, 128)); err != nil {
			t.Fatal(err)
		}
	}
	before := dev.Stats().ReadOps
	if err := Exec(s, Op{Type: OpScan, KeyIdx: keys / 2, ScanLen: n}, 128, n, nil); err != nil {
		t.Fatal(err)
	}
	if reads := dev.Stats().ReadOps - before; reads > workers*n {
		t.Fatalf("a scan of %d made %d slot reads, want at most %d (workers × n)", n, reads, workers*n)
	}
}
