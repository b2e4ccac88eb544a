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
//	        -p2 -workers 8 -device nvme -devscale 0.02 -verify
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
	"p2kvs/internal/kv"
	"p2kvs/internal/loadgen"
	"p2kvs/internal/stats"
)

func main() {
	var (
		benchmarks = flag.String("benchmarks", "fillseq,readrandom", "comma-separated op mixes: fillseq, fillrandom, updaterandom, updatezipfian, readseq, readrandom, readzipfian, scan, ycsb-load, ycsb-a … ycsb-f")
		num        = flag.Int("num", 0, "operations per benchmark and size of the key space (0 = 100000; under -experiment, 0 = the experiment default)")
		valueSize  = flag.Int("value_size", 128, "value size in bytes")
		threads    = flag.Int("threads", 1, "concurrent client threads")
		p2         = flag.Bool("p2", false, "run under p2KVS with -workers instances (default: one instance)")
		scanSize   = flag.Int("scan_size", 100, "keys per scan op")
		opDeadline = flag.Duration("op_deadline", 0, "per-op deadline (0 = none); rejected/expired ops are counted, not fatal")
		statsJSON  = flag.Bool("stats_json", false, "print the store's StatsJSON document after the run")
		ckptEvery  = flag.Int("checkpoint_every", 0, "take an online checkpoint every N completed ops (0 = off)")
		ckptDir    = flag.String("checkpoint_dir", "dbbench-backup", "backup set -checkpoint_every writes into")
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
			Out: os.Stdout, Quick: *quick, Budget: *budget,
			Keys: *num, ValueSize: *valueSize, MaxOps: *maxOps,
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
	run := runConfig{num: *num, valueSize: *valueSize, threads: *threads, scanSize: *scanSize, deadline: *opDeadline}
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
	if *ckptEvery > 0 {
		saver.start(store, *ckptEvery, *ckptDir)
	}
	if *reshardAt > 0 {
		resharder.arm(store, int64(*reshardAt), *reshardTo)
	}

	fmt.Printf("engine=%s p2=%v workers=%d threads=%d num=%d value=%dB device=%q\n",
		opts.Engine, *p2, opts.Workers, *threads, *num, *valueSize, opts.SimulateDevice)
	loaded := 0 // keys [0, loaded) exist
	for _, spec := range specs {
		if spec.Preload && loaded == 0 {
			fmt.Fprintf(os.Stderr, "(implicit fillseq to populate %d keys)\n", *num)
			quiet := run
			quiet.threads, quiet.deadline, quiet.verify = 1, 0, nil
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
	saver.stop()
	if run.verify != nil && !run.verify.Report(os.Stdout) {
		fatal(fmt.Errorf("FATAL: store served silently wrong values"))
	}
	resharder.report(opts.CutoverBudget, run.verify != nil)
	reportStore(store)
	if *statsJSON {
		raw, err := store.StatsJSON()
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(raw))
	}
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

// runConfig is the per-invocation shape every phase shares.
type runConfig struct {
	num, valueSize, threads, scanSize int
	deadline                          time.Duration
	verify                            *loadgen.Verifier
}

func (c runConfig) of(spec loadgen.Spec, keys int) loadgen.Phase {
	return loadgen.Phase{
		Spec: spec, Ops: c.num, Keys: keys, Threads: c.threads, Window: 1,
		ValueSize: c.valueSize, Verify: c.verify,
	}
}

// phase drives one op mix against store; any error outside the outcome
// taxonomy ends the run.
func (c runConfig) phase(store *p2kvs.Store, spec loadgen.Spec, keys int) (*loadgen.Tally, time.Duration) {
	tally, elapsed, err := loadgen.Run(c.of(spec, keys), func(int) (loadgen.Target, error) {
		return &embedded{store: store, cfg: c}, nil
	})
	if err != nil {
		fatal(err)
	}
	return tally, elapsed
}

// embedded is the in-process loadgen.Target, one per client thread: one
// op per window, applied through the store's context-accepting API so
// -op_deadline holds. It is its own loadgen.KV, bound to the current
// op's context.
type embedded struct {
	store *p2kvs.Store
	cfg   runConfig
	ctx   context.Context
}

func (e *embedded) Do(ops []loadgen.Op, t *loadgen.Tally) error {
	for _, op := range ops {
		cancel := context.CancelFunc(func() {})
		if e.ctx = context.Background(); e.cfg.deadline > 0 {
			e.ctx, cancel = context.WithTimeout(e.ctx, e.cfg.deadline)
		}
		err := loadgen.Exec(e, op, e.cfg.valueSize, e.cfg.scanSize, t.Hit)
		cancel()
		saver.tick()
		resharder.tick()
		if !t.Count(loadgen.Classify(err)) {
			return err
		}
	}
	return nil
}

func (e *embedded) Put(key, value []byte) error    { return e.store.PutCtx(e.ctx, key, value) }
func (e *embedded) Get(key []byte) ([]byte, error) { return e.store.GetCtx(e.ctx, key) }
func (e *embedded) Scan(start []byte, n int) ([]p2kvs.Pair, error) {
	return e.store.ScanCtx(e.ctx, start, n)
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
// (strict) a cutover pause over budget is too. A threshold never reached
// (num < reshard_at) is reported, not hung on.
func (r *liveResharder) report(budget time.Duration, strict bool) {
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
	if budget == 0 {
		budget = 10 * time.Millisecond
	}
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

// checkpointSaver takes online checkpoints while the workloads run: every
// N completed ops the worker threads nudge a dedicated goroutine, which
// backs the store up into a single incremental set. Triggers arriving
// while a save is in flight coalesce into one.
type checkpointSaver struct {
	every   int64
	ops     atomic.Int64
	trigger chan struct{}
	done    chan struct{}
	fails   atomic.Int64
}

var saver checkpointSaver

func (c *checkpointSaver) start(store *p2kvs.Store, every int, dir string) {
	c.every = int64(every)
	c.trigger = make(chan struct{}, 1)
	c.done = make(chan struct{})
	go func() {
		defer close(c.done)
		for range c.trigger {
			if _, err := p2kvs.Backup(store, dir); err != nil {
				c.fails.Add(1)
				fmt.Fprintln(os.Stderr, "dbbench: checkpoint:", err)
			}
		}
	}()
}

// tick is called by every worker thread after each completed op.
func (c *checkpointSaver) tick() {
	if c.every == 0 {
		return
	}
	if c.ops.Add(1)%c.every == 0 {
		select {
		case c.trigger <- struct{}{}:
		default: // a save is already pending; coalesce
		}
	}
}

func (c *checkpointSaver) stop() {
	if c.every == 0 {
		return
	}
	close(c.trigger)
	<-c.done
}

// reportStore prints the store-side summary from one StatsSnapshot (the
// document INFO and -stats_json serve), one line per INFO group: the
// queues, admission and the compaction scheduler (store), health,
// background retries and injected faults (robustness), online checkpoints
// (persistence, once one was taken). A worker that is unhealthy or turned
// requests away gets its own store and robustness lines.
func reportStore(store *p2kvs.Store) {
	snap := store.StatsSnapshot()
	line := func(label, group string, vs ...any) {
		fmt.Printf("%-15s:", label)
		for _, v := range vs {
			for _, p := range stats.Pairs(v, "", group) {
				fmt.Printf(" %s=%s", p[0], p[1])
			}
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
	if snap.Checkpoints > 0 {
		line("persistence", "Persistence", snap, snap.Aggregate)
	}
	if f := saver.fails.Load(); f > 0 {
		fmt.Printf("%-15s: %d checkpoints FAILED\n", "persistence", f)
	}
}
