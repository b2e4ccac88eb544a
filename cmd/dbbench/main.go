// Command dbbench is this repository's counterpart of RocksDB's db_bench
// — the tool the paper's micro-benchmarks and artifact use — and the one
// embedded load driver: it runs any row of the loadgen op-mix table
// (fillseq … scan, ycsb-load, ycsb-a … ycsb-f) against any engine,
// standalone or under p2KVS, optionally behind a simulated device;
// regenerates the paper's tables and figures (-experiment); and measures
// the hot-key cache before/after (-hotcache_bench).
//
// Examples:
//
//	dbbench -benchmarks fillrandom,readrandom,ycsb-a -num 100000 -threads 8 \
//	        -p2 -workers 8 -verify
//	dbbench -experiment fig12 -quick        # -list prints the experiment ids
//	dbbench -hotcache_bench -p2 -workers 4 -num 20000 -threads 4 -devscale 0.2
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"sync/atomic"
	"time"

	"p2kvs"
	"p2kvs/internal/bench"
	"p2kvs/internal/core"
	"p2kvs/internal/kv"
	"p2kvs/internal/loadgen"
	"p2kvs/internal/stats"
)

func main() {
	var (
		benchmarks = flag.String("benchmarks", "fillseq,readrandom", "comma-separated op mixes: fillseq, fillrandom, updaterandom, updatezipfian, readseq, readrandom, readzipfian, scan, ycsb-load, ycsb-a … ycsb-f")
		num        = flag.Int("num", 0, "operations per benchmark and size of the key space (0 = 100000; under -experiment, 0 = the experiment default)")
		threads    = flag.Int("threads", 1, "concurrent client threads")
		p2         = flag.Bool("p2", false, "run under p2KVS with -workers instances (default: one instance)")
		verify     = flag.Bool("verify", false, "paranoid reads: check every read value against the value codec; corruption errors are counted, a silently wrong value is fatal")
		hcBench    = flag.Bool("hotcache_bench", false, "run the hot-cache before/after benchmark instead of -benchmarks: zipfian ycsb-c and ycsb-b against cache-off and cache-on stores, emitted as a BENCH json line")
		reshardAt  = flag.Int("reshard_at", 0, "trigger an online reshard after this many completed ops (0 = never; requires -elastic)")
		reshardTo  = flag.Int("reshard_to", 0, "worker count the -reshard_at reshard grows/shrinks to")
		experiment = flag.String("experiment", "", "regenerate a paper table/figure instead of -benchmarks: an experiment id, a comma-separated list, or all")
		list       = flag.Bool("list", false, "list the -experiment ids and exit")
		quick      = flag.Bool("quick", false, "-experiment: trim every sweep to its end points and shrink budgets for a fast smoke run")
		budget     = flag.Duration("budget", 0, "-experiment: wall-clock budget per measured cell (0 = 2s)")
		maxOps     = flag.Int("maxops", 0, "-experiment: max operations per cell (0 = 40000)")
	)
	storeOpts := loadgen.StoreFlags(flag.CommandLine, p2kvs.Options{Workers: 8})
	flag.Parse()

	if *list {
		for _, name := range bench.Names() {
			fmt.Println(name)
		}
		return
	}
	if *experiment != "" {
		runExperiments(*experiment, bench.Env{
			Out: os.Stdout, Quick: *quick, Budget: *budget, Keys: *num, MaxOps: *maxOps,
		})
		return
	}

	// Everything the command line names is checked before a store opens.
	specs, err := loadgen.ParseMixes(*benchmarks, "uniform")
	if err != nil {
		usage(err)
	}
	opts, err := storeOpts()
	if err != nil {
		usage(err)
	}
	if !*p2 {
		opts.Workers = 1
	}
	if *reshardAt > 0 && (!opts.Elastic || *reshardTo < 1) {
		usage(fmt.Errorf("-reshard_at requires -elastic and -reshard_to >= 1"))
	}
	if *num == 0 {
		*num = 100000
	}
	run := runConfig{num: *num, threads: *threads}
	if *verify {
		run.verify = &loadgen.Verifier{}
	}
	if *hcBench {
		runHotCacheBench(opts, run)
		return
	}

	store, err := p2kvs.Open(opts)
	if err != nil {
		fatal(err)
	}
	defer store.Close()
	if *reshardAt > 0 {
		resharder.arm(store, int64(*reshardAt), *reshardTo)
	}

	fmt.Printf("engine=%s p2=%v workers=%d threads=%d num=%d value=%dB\n",
		opts.Engine, *p2, opts.Workers, *threads, *num, valueSize)
	loaded := 0 // keys [0, loaded) exist
	for _, spec := range specs {
		if spec.Preload && loaded == 0 {
			fmt.Fprintf(os.Stderr, "(implicit fillseq to populate %d keys)\n", *num)
			quiet := run
			quiet.threads, quiet.verify = 1, nil
			quiet.phase(store, loadgen.MustLookup("fillseq"), *num)
			loaded = *num
		}
		// Fills overwrite [0, num); a pure-insert mix (ycsb-load) on an
		// empty store starts its frontier at 0 and creates the same range.
		keys := *num
		if spec.Insert == 1 {
			keys = loaded
		}
		tally, elapsed := run.phase(store, spec, keys)
		fmt.Println(tally.Line(run.of(spec, keys), elapsed))
		loaded = *num
	}
	if run.verify != nil && !run.verify.Report(os.Stdout) {
		fatal(fmt.Errorf("FATAL: store served silently wrong values"))
	}
	resharder.report(run.verify != nil)
	reportStore(store)
}

// usage reports a command-line error: exit status 2, nothing opened yet.
func usage(err error) {
	fmt.Fprintln(os.Stderr, "dbbench:", err)
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dbbench:", err)
	os.Exit(1)
}

// runExperiments is the -experiment mode: each id names one runner of
// internal/bench, printing the table or figure the paper reports.
func runExperiments(ids string, env bench.Env) {
	names := strings.Split(ids, ",")
	if ids == "all" {
		names = bench.Names()
	}
	for _, name := range names {
		start := time.Now()
		if _, err := bench.Run(strings.TrimSpace(name), env); err != nil {
			usage(err)
		}
		fmt.Printf("[%s completed in %v]\n", name, time.Since(start).Round(time.Millisecond))
	}
}

// The shape of every key-value pair dbbench writes and every scan it runs.
const (
	valueSize = 128
	scanSize  = 100
)

// runConfig is the per-invocation shape every phase shares.
type runConfig struct {
	num, threads int
	verify       *loadgen.Verifier
}

func (c runConfig) of(spec loadgen.Spec, keys int) loadgen.Phase {
	return loadgen.Phase{
		Spec: spec, Ops: c.num, Keys: keys, Threads: c.threads, Window: 1,
		ValueSize: valueSize, Verify: c.verify,
	}
}

// phase drives one op mix against store; any error outside the outcome
// taxonomy ends the run.
func (c runConfig) phase(store *p2kvs.Store, spec loadgen.Spec, keys int) (*loadgen.Tally, time.Duration) {
	tally, elapsed, err := loadgen.Run(c.of(spec, keys), func(int) (loadgen.Target, error) {
		return embedded{store}, nil
	})
	if err != nil {
		fatal(err)
	}
	return tally, elapsed
}

// embedded is the in-process loadgen.Target, one per client thread: one
// op per window, applied through the store's API.
type embedded struct{ store *p2kvs.Store }

func (e embedded) Do(ops []loadgen.Op, t *loadgen.Tally) error {
	for _, op := range ops {
		err := loadgen.Exec(e.store, op, valueSize, scanSize, t.Hit)
		resharder.tick()
		if !t.Count(loadgen.Classify(err)) {
			return err
		}
	}
	return nil
}

// liveResharder fires one online reshard mid-workload: once the worker
// threads have completed -reshard_at ops, a dedicated goroutine calls
// Store.Reshard(-reshard_to) while the workload keeps hammering the
// store — the elasticity claim measured, not simulated.
type liveResharder struct {
	at    int64
	to    int
	store *p2kvs.Store
	ops   atomic.Int64
	done  chan struct{}
	err   error
	took  time.Duration
}

var resharder liveResharder

func (r *liveResharder) arm(store *p2kvs.Store, at int64, to int) {
	r.store, r.at, r.to = store, at, to
	r.done = make(chan struct{})
}

// tick is called by every worker thread after each completed op; the
// thread that crosses the threshold launches the reshard.
func (r *liveResharder) tick() {
	if r.at == 0 {
		return
	}
	if r.ops.Add(1) != r.at {
		return
	}
	go func() {
		defer close(r.done)
		fmt.Fprintf(os.Stderr, "(reshard to %d workers starting at op %d)\n", r.to, r.at)
		start := time.Now()
		r.err = r.store.Reshard(context.Background(), r.to)
		r.took = time.Since(start)
	}()
}

// report waits for a launched reshard, prints its summary and enforces
// the acceptance gates: a failed reshard is always fatal; under -verify
// (strict) a cutover pause over the store's budget is too. A threshold
// never reached (num < reshard_at) is reported, not hung on.
func (r *liveResharder) report(strict bool) {
	if r.at == 0 {
		return
	}
	if r.ops.Load() < r.at {
		fmt.Fprintf(os.Stderr, "dbbench: -reshard_at %d never reached (%d ops ran); reshard skipped\n", r.at, r.ops.Load())
		return
	}
	if <-r.done; r.err != nil {
		fatal(fmt.Errorf("FATAL: reshard failed: %w", r.err))
	}
	budget := core.DefaultCutoverBudget
	st := r.store.ReshardStats()
	fmt.Printf("reshard        : %d->%d workers in %.1fms; moved %d keys (%d bytes); double_writes=%d stale_skipped=%d; cutover pause=%.1fus (budget %.1fus, retries=%d)\n",
		st.From, st.To, float64(r.took.Microseconds())/1000,
		st.MovedKeys, st.MovedBytes, st.DoubleWrites, st.SkippedStale,
		float64(st.BarrierNs)/1000, float64(budget.Microseconds()), st.CutoverRetries)
	if strict && st.BarrierNs > budget.Nanoseconds() {
		fatal(fmt.Errorf("FATAL: cutover paused writers %.1fus, over the %.1fus budget",
			float64(st.BarrierNs)/1000, float64(budget.Microseconds())))
	}
}

// reportStore prints the store-side summary from one StatsSnapshot (the
// document INFO serves), one line per INFO group: the queues, admission
// and the compaction scheduler (store), health, background retries and
// injected faults (robustness). A worker that is unhealthy or turned
// requests away gets its own store and robustness lines.
func reportStore(store *p2kvs.Store) {
	snap := store.StatsSnapshot()
	line := func(label, group string, v any) {
		fmt.Printf("%-15s:", label)
		for _, p := range stats.Pairs(v, "", group) {
			fmt.Printf(" %s=%s", p[0], p[1])
		}
		fmt.Println()
	}
	line("store", "Store", snap.Aggregate)
	line("robustness", "Robustness", snap.Aggregate)
	for _, w := range snap.PerWorker {
		if w.State != kv.StateHealthy || w.Rejected+w.Expired+w.Shed > 0 {
			line(fmt.Sprintf("store w%d", w.ID), "Store", w)
			line(fmt.Sprintf("robustness w%d", w.ID), "Robustness", w)
		}
	}
}
