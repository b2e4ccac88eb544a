package loadgen

import (
	"bytes"
	"flag"
	"io"
	"os"
	"strings"
	"testing"
	"time"

	"p2kvs"
)

// parse builds the store flags over def, parses args and returns the
// resulting Options.
func parse(t *testing.T, def p2kvs.Options, args ...string) (p2kvs.Options, error) {
	t.Helper()
	fs := flag.NewFlagSet("tool", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	build := StoreFlags(fs, def)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return build()
}

// TestStoreFlagsHelpGolden pins the shared flag surface: declaring a flag
// twice panics inside the flag package, and a rename, a dropped flag or a
// changed default shows up as a diff against testdata/store_flags.golden
// (regenerate with `make stats-golden`, i.e. -update, after an intended
// change; CI reruns it and fails on a diff).
var updateGolden = flag.Bool("update", false, "rewrite golden files")

func TestStoreFlagsHelpGolden(t *testing.T) {
	var out bytes.Buffer
	fs := flag.NewFlagSet("tool", flag.ContinueOnError)
	fs.SetOutput(&out)
	StoreFlags(fs, p2kvs.Options{Dir: "tool-db", Workers: 8, Admission: p2kvs.AdmitReject, DrainTimeout: 30 * time.Second})
	fs.PrintDefaults()
	const golden = "testdata/store_flags.golden"
	if *updateGolden {
		if err := os.WriteFile(golden, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Fatalf("store flag help drifted from %s:\n--- got ---\n%s--- want ---\n%s", golden, out.Bytes(), want)
	}
}

func TestStoreFlagsMapping(t *testing.T) {
	o, err := parse(t, p2kvs.Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !o.InMemory || o.Dir == "" || o.Workers != 8 || o.Engine != p2kvs.EngineRocksDB || o.Admission != p2kvs.AdmitBlock {
		t.Fatalf("defaults with no -dir: %+v", o)
	}

	o, err = parse(t, p2kvs.Options{Dir: "srv-db", Workers: 8, Admission: p2kvs.AdmitReject, DrainTimeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if o.InMemory || o.Dir != "srv-db" || o.Admission != p2kvs.AdmitReject || o.DrainTimeout != time.Minute {
		t.Fatalf("tool defaults not honoured: %+v", o)
	}

	o, err = parse(t, p2kvs.Options{Workers: 8},
		"-dir", "/data/db", "-inmemory", "-engine", "wiredtiger", "-workers", "3", "-devscale", "0.5",
		"-drain_timeout", "5s", "-scrub_interval", "1m", "-scrub_rate", "1024", "-repair_from", "/bk",
		"-hot_cache", "-1", "-repl_backlog", "4096", "-elastic", "-wal_sync", "250ms")
	if err != nil {
		t.Fatal(err)
	}
	want := p2kvs.Options{
		Dir: "/data/db", InMemory: true, Engine: p2kvs.EngineWiredTiger, Workers: 3, DeviceScale: 0.5,
		DrainTimeout: 5 * time.Second, ScrubInterval: time.Minute, ScrubRate: 1024, RepairFrom: "/bk",
		HotCacheBytes: -1, ReplBacklogBytes: 4096, Elastic: true,
		WALSync: p2kvs.SyncInterval, WALSyncInterval: 250 * time.Millisecond,
	}
	if o != want {
		t.Fatalf("mapping:\n got %+v\nwant %+v", o, want)
	}

	if o, _ = parse(t, p2kvs.Options{WALSync: p2kvs.SyncOnCommit}, "-wal_sync", "never"); o.WALSync != p2kvs.SyncNever {
		t.Fatalf("-wal_sync never: %+v", o)
	}
	if o, _ = parse(t, p2kvs.Options{}, "-wal_sync", "commit"); o.WALSync != p2kvs.SyncOnCommit {
		t.Fatalf("-wal_sync commit: %+v", o)
	}
}

// TestCommandLineNamesAreValidatedUpFront pins the contract dbbench and
// netbench rely on to exit 2 before opening a store or dialing: every
// name the command line can carry is rejected by the parser that reads
// it, with the list of valid names in the message.
func TestCommandLineNamesAreValidatedUpFront(t *testing.T) {
	mixes := func(list, dist string) error { _, err := ParseMixes(list, dist); return err }
	store := func(args ...string) error { _, err := parse(t, p2kvs.Options{}, args...); return err }
	cases := []struct {
		name string
		err  error
		want []string // substrings of the message; nil = must succeed
	}{
		{"known mixes", mixes("fillseq, readrandom,ycsb-a,mixed", "zipfian"), nil},
		{"unknown mix after valid ones", mixes("fillseq,readrandom,bogus", "uniform"), []string{`"bogus"`, "fillseq", "ycsb-f", "mixed"}},
		{"empty list", mixes(" , ", "uniform"), []string{"no benchmarks"}},
		{"unknown -dist", mixes("set", "gaussian"), []string{`"gaussian"`, "uniform, zipfian, latest, seq"}},
		{"unknown -engine", store("-engine", "bogus"), []string{`"bogus"`, "rocksdb, leveldb, pebblesdb, wiredtiger, kvell"}},
		{"bad -wal_sync", store("-wal_sync", "sometimes"), []string{"never, commit, or a positive duration"}},
		{"negative -wal_sync", store("-wal_sync", "-5ms"), []string{"positive duration"}},
	}
	for _, c := range cases {
		if c.want == nil {
			if c.err != nil {
				t.Errorf("%s: %v", c.name, c.err)
			}
			continue
		}
		if c.err == nil {
			t.Errorf("%s: accepted", c.name)
			continue
		}
		for _, w := range c.want {
			if !strings.Contains(c.err.Error(), w) {
				t.Errorf("%s: error %q does not mention %q", c.name, c.err, w)
			}
		}
	}
	// The wire phases inherit -dist; the fixed-distribution rows keep theirs.
	specs, err := ParseMixes("set,readzipfian", "seq")
	if err != nil || specs[0].Dist != "seq" || specs[1].Dist != "zipfian" {
		t.Fatalf("dist resolution: %+v, %v", specs, err)
	}
}
