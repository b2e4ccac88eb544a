// Command netbench is the wire-side load driver for p2kvs-server. Its
// default mode is a concurrent RESP load generator: N connections × a
// configurable pipeline depth running rows of the loadgen op-mix table
// (set, get, mixed, fillrandom, ycsb-a, …), reporting throughput, window
// round-trip quantiles and the server-side coalescing counters pulled
// from INFO — the observable proof that pipelined runs reached the
// engine as WriteBatch / multiget calls. Two further modes reuse the same
// client and value codec: -cluster N (in-process GET scaling of
// an N-node tier, see cluster.go) and -crash (SIGKILL torture of a real
// server process, optionally a primary/replica pair, see crash.go).
//
// Examples:
//
//	netbench -addr 127.0.0.1:6380 -conns 8 -pipeline 16 -num 200000 \
//	         -benchmarks set,get,mixed -dist zipfian -verify
//	netbench -cluster 3
//	netbench -crash bin/p2kvs-server -crash_cycles 25 -crash_mode commit
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"p2kvs/internal/cluster"
	"p2kvs/internal/loadgen"
)

func main() {
	var (
		addr       = flag.String("addr", "127.0.0.1:6380", "server address")
		conns      = flag.Int("conns", 8, "concurrent client connections")
		pipeline   = flag.Int("pipeline", 16, "commands per pipeline window")
		num        = flag.Int("num", 100000, "operations per benchmark phase and size of the key space")
		dist       = flag.String("dist", "uniform", "key distribution of the set/get/mixed phases: uniform, zipfian, latest, seq")
		benchmarks = flag.String("benchmarks", "set,get", "comma-separated phases: set, get, mixed (90% GET), or any scan-free dbbench mix (fillseq, readzipfian, ycsb-a, …); reads see what the server holds — put a write phase first on an empty one")
		seed       = flag.Int64("seed", 1, "base RNG seed (-crash: 0 = time-based)")
		bgsave     = flag.Bool("bgsave", false, "issue BGSAVE after the phases and wait for the save to commit")
		verify     = flag.Bool("verify", false, "paranoid reads: check every GET hit against the value codec; -CORRUPTION replies are counted, a silently wrong value is fatal")

		clusterN = flag.Int("cluster", 0, "in-process cluster scaling benchmark: boot this many primaries (2-4 intended), each with a read replica and its own simulated SATA device, compare aggregate batched GET throughput against one node, measure replica staleness, emit a BENCH json line")

		crashBin   = flag.String("crash", "", "crash-recovery torture: path of a p2kvs-server binary to spawn, load, SIGKILL and verify, -crash_cycles times")
		crashMode  = flag.String("crash_mode", "commit", "durability under -crash: commit (zero acked-write loss required), interval, never (clean recovery required)")
		crashN     = flag.Int("crash_cycles", 25, "kill/restart cycles under -crash")
		crashRepl  = flag.Bool("crash_replica", false, "under -crash, run a primary/replica pair, rotate the SIGKILL victim and verify convergence and sync kinds")
		crashDir   = flag.String("crash_dir", "", "data directory for -crash (default: a fresh temp dir)")
		serverArgs = flag.String("server_args", "", "extra space-separated flags for the servers -crash spawns, e.g. \"-engine wiredtiger -workers 2\"")
	)
	flag.Parse()

	// Everything the command line names is checked before anything dials.
	specs, err := loadgen.ParseMixes(*benchmarks, *dist)
	if err != nil {
		usage(err)
	}
	for _, s := range specs {
		if s.Scan+s.RMW > 0 {
			usage(fmt.Errorf("benchmark %q scans or read-modify-writes, which the wire driver does not issue", s.Name))
		}
	}
	switch {
	case *clusterN > 0:
		runClusterBench(*clusterN, *num, *conns)
		return
	case *crashBin != "":
		if _, ok := walSyncFor[*crashMode]; !ok {
			usage(fmt.Errorf("unknown -crash_mode %q (valid: commit, interval, never)", *crashMode))
		}
		runCrash(crashConfig{
			serverBin: *crashBin, serverArgs: *serverArgs, dir: *crashDir, mode: *crashMode,
			cycles: *crashN, replica: *crashRepl, conns: *conns, pipeline: *pipeline, seed: *seed,
		})
		return
	}

	w := wireConfig{addr: *addr}
	if *verify {
		w.verify = &loadgen.Verifier{}
	}

	fmt.Printf("netbench: addr=%s conns=%d pipeline=%d num=%d value=%dB dist=%s\n",
		*addr, *conns, *pipeline, *num, valueSize, *dist)
	// Unlike dbbench, nothing is populated implicitly: the server outlives
	// this process, and a read phase after a restart, a resync or a
	// reshard must see the data that went through it, not a fresh copy.
	for _, spec := range specs {
		p := loadgen.Phase{
			Spec: spec, Ops: *num, Keys: *num, Threads: *conns, Window: *pipeline,
			ValueSize: valueSize, Seed: *seed, Verify: w.verify,
		}
		tally, elapsed := w.run(p)
		fmt.Println(tally.Line(p, elapsed))
	}
	info := cluster.NewConn(*addr, 0)
	defer info.Close()
	if *bgsave {
		bgsaveAndWait(info)
	}
	if w.verify != nil && !w.verify.Report(os.Stdout) {
		fatal(fmt.Errorf("FATAL: server served silently wrong values"))
	}
	reportServerCounters(info)
}

// usage reports a command-line error: exit status 2, nothing dialed yet.
func usage(err error) {
	fmt.Fprintln(os.Stderr, "netbench:", err)
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "netbench:", err)
	os.Exit(1)
}

// valueSize is the size of every value netbench writes, in bytes.
const valueSize = 128

// wireConfig is what every connection of the load mode shares.
type wireConfig struct {
	addr   string
	verify *loadgen.Verifier
}

func (w wireConfig) run(p loadgen.Phase) (*loadgen.Tally, time.Duration) {
	tally, elapsed, err := loadgen.Run(p, func(int) (loadgen.Target, error) {
		return &wireConn{wireConfig: w, Conn: cluster.NewConn(w.addr, 0)}, nil
	})
	if err != nil {
		fatal(err)
	}
	return tally, elapsed
}

// wireConn is the RESP loadgen.Target: one window is one pipeline —
// commands written back to back, one flush, all replies read in order.
// Run closes the embedded connection when the thread is done.
type wireConn struct {
	wireConfig
	*cluster.Conn
	cmds [][][]byte
}

var cmdGet, cmdSet = []byte("GET"), []byte("SET")

func (w *wireConn) Do(ops []loadgen.Op, t *loadgen.Tally) error {
	w.cmds = w.cmds[:0]
	for _, op := range ops {
		if op.Type == loadgen.OpRead {
			w.cmds = append(w.cmds, [][]byte{cmdGet, loadgen.Key(op.KeyIdx)})
		} else {
			w.cmds = append(w.cmds, [][]byte{cmdSet, loadgen.Key(op.KeyIdx), loadgen.Value(op.KeyIdx, 0, valueSize)})
		}
	}
	reps, err := w.Pipeline(w.cmds)
	if err != nil {
		return err
	}
	for i, rep := range reps {
		switch {
		case rep.IsError():
			// An error reply leaves the stream framed: count it (even an
			// unclassified one) and keep the connection going.
			t.Count(loadgen.ClassifyReply(string(rep.Str)))
		case ops[i].Type == loadgen.OpRead && rep.Kind == '$' && !rep.Nil:
			t.Hit(ops[i].KeyIdx, rep.Str)
		}
	}
	return nil
}

// bgsaveAndWait issues BGSAVE and polls INFO until the background save
// commits (or fails), so the final counter report reflects a finished
// checkpoint.
func bgsaveAndWait(c *cluster.Conn) {
	rep, err := c.Do([]byte("BGSAVE"))
	if err != nil {
		fmt.Fprintln(os.Stderr, "netbench: bgsave:", err)
		return
	}
	fmt.Printf("bgsave: %s\n", rep.Str)
	if rep.IsError() {
		return
	}
	for deadline := time.Now().Add(15 * time.Second); time.Now().Before(deadline); time.Sleep(50 * time.Millisecond) {
		f, err := loadgen.FetchInfo(c)
		if err == nil && f.Int("store_checkpoint_in_progress") == 0 && f.Int("store_checkpoints") > 0 {
			return
		}
	}
	fmt.Fprintln(os.Stderr, "netbench: bgsave did not commit within 15s")
}

// reportServerCounters prints four sections of the server's INFO after a
// run, one line each and key=value per counter: Stats and Store prove
// that pipeline coalescing reached the engine's batch paths and show the
// compaction scheduler, Persistence the checkpoints, Cache (when the
// server runs one) the hot-key cache. The keys are whatever the server's
// stats schema puts in each section.
func reportServerCounters(c *cluster.Conn) {
	rep, err := c.Do([]byte("INFO"))
	if err != nil || rep.IsError() {
		fmt.Fprintln(os.Stderr, "netbench: info:", rep.String(), err)
		return
	}
	for _, sec := range strings.Split(string(rep.Str), "# ")[1:] {
		name, body, _ := strings.Cut(strings.TrimSpace(sec), "\r\n")
		if !(name == "Stats" || name == "Store" || name == "Persistence" ||
			name == "Cache" && strings.HasPrefix(body, "cache_enabled:1")) {
			continue
		}
		fmt.Printf("server %s:", name)
		for _, l := range strings.Split(body, "\r\n") {
			k, v, _ := strings.Cut(l, ":")
			fmt.Printf(" %s=%s", k, v)
		}
		fmt.Println()
	}
}
