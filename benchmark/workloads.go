package main

import (
	"fmt"
	"sync"
	"time"
)

// driver is how a workload's clients reach the store.
type driver uint8

const (
	// driveAsync: core.Store PutAsync/GetAsync, asyncWindow requests in
	// flight per client.
	driveAsync driver = iota
	// driveSync: core.Store Get/Put, one request in flight per client.
	driveSync
	// drivePipe: RESP over loopback, wirePipeline commands per flush.
	drivePipe
	// drivePaced: RESP over loopback, unpipelined, on an open-loop schedule.
	drivePaced
)

const (
	largeKeys    = 1_000_000 // 144 MB of user data: 4.5x the 32 MiB of block cache
	wireKeys     = 100_000   // 14 MB: fits the block caches and the memtables
	wirePipeline = 16
	// pacedRate is the open-loop request rate of wire-pipeline's second
	// phase, all clients together.
	pacedRate = 10_000
	// pacedShare is the part of wire-pipeline's window spent in the paced
	// phase; the rest is the pipelined phase.
	pacedShare = 0.25
	auditKeys  = 10_000
	// waterfallOps is the number of GETs and of SETs in each of the four
	// concurrency-1 sections of a traced run.
	waterfallOps = 20_000
	// A request leaves about three spans: client, engine, one vfs call.
	waterfallSpans  = 4 * waterfallOps
	loadSampleSpans = 100_000
)

// mix is an operation stream: which keys, and what share are writes.
type mix struct {
	keys      chooser
	writeFrac float64
}

// budget ends a phase after dur or after ops operations per client,
// whichever is set.
type budget struct {
	dur time.Duration
	ops int64
}

// source turns the mix into one client's opSource. Writes go to the
// nearest key the client owns.
func (m mix) source(client int, r *rng, deadline, ops int64) opSource {
	var issued int64
	return func(now int64) (uint64, bool, bool) {
		if (deadline > 0 && now >= deadline) || (ops > 0 && issued == ops) {
			return 0, false, false
		}
		issued++
		id := m.keys.pick(r)
		write := m.writeFrac >= 1 || (m.writeFrac > 0 && r.float64() < m.writeFrac)
		if write {
			id = ownedBy(id, client)
		}
		return id, write, true
	}
}

// workload is one of the benchmark's traffic shapes.
type workload struct {
	name string
	keys uint64
	// preload loads every key, flushes and compacts before the window;
	// otherwise the store starts empty.
	preload  bool
	hotCache int64
	driver   driver
	mix      func() mix
	// warmupOps operations per client run untimed before the window, with
	// the window's own driver and mix.
	warmupOps int64
}

var zipfLarge = sync.OnceValue(func() *zipfChooser { return newZipf(largeKeys, 0.99) })

// Why each workload exists is recorded in BENCHMARK.json and README.md.
var workloads = []workload{
	{
		name:      "fill-async",
		keys:      largeKeys,
		driver:    driveAsync,
		mix:       func() mix { return mix{uniformChooser{largeKeys}, 1} },
		warmupOps: 100_000,
	},
	{
		name:      "read-uniform-large",
		keys:      largeKeys,
		preload:   true,
		driver:    driveSync,
		mix:       func() mix { return mix{uniformChooser{largeKeys}, 0} },
		warmupOps: 100_000,
	},
	{
		name:      "mixed-zipf-hot",
		keys:      largeKeys,
		preload:   true,
		hotCache:  hotCacheBytes,
		driver:    driveAsync,
		mix:       func() mix { return mix{zipfLarge(), 0.5} },
		warmupOps: 100_000,
	},
	{
		name:      "wire-pipeline",
		keys:      wireKeys,
		preload:   true,
		driver:    drivePipe,
		mix:       func() mix { return mix{uniformChooser{wireKeys}, 0.1} },
		warmupOps: 50_000,
	},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// phaseResult is what the clients of one phase observed together.
type phaseResult struct {
	res       clientResult
	elapsedNs int64
	// scheduled and late count open-loop operations and those that could
	// not start within one interval of their due time.
	scheduled, late int64
}

func (p *phaseResult) ops() int64 { return p.res.read.n + p.res.write.n }

// runPhase runs one phase with numClients clients and waits for every
// request to complete. stream labels the phase's random streams.
func (h *harness) runPhase(d driver, m mix, seed, stream uint64, b budget) (phaseResult, error) {
	type runner struct {
		run  func(deadline int64)
		res  *clientResult
		pace *pacer
		conn *respConn
	}
	runners := make([]runner, numClients)
	defer func() {
		for _, r := range runners {
			if r.conn != nil {
				r.conn.close()
			}
		}
	}()
	for c := range runners {
		c := c
		r := newRNG(seed, stream, uint64(c))
		src := func(deadline int64) opSource { return m.source(c, r, deadline, b.ops) }
		var rc *respConn
		if d == drivePipe || d == drivePaced {
			var err error
			if rc, err = dialRESP(h.addr); err != nil {
				return phaseResult{}, err
			}
			runners[c].conn = rc
		}
		switch d {
		case driveAsync:
			cl := newAsyncClient(h.store, h.vs, asyncWindow)
			runners[c].res = &cl.res
			runners[c].run = func(deadline int64) { cl.run(src(deadline)) }
		case driveSync:
			cl := &syncClient{conn: coreConn{h.store}, vs: h.vs}
			runners[c].res = &cl.res
			runners[c].run = func(deadline int64) { cl.run(src(deadline)) }
		case drivePipe:
			cl := &pipeClient{rc: rc, vs: h.vs, depth: wirePipeline}
			runners[c].res = &cl.res
			runners[c].run = func(deadline int64) { cl.run(src(deadline)) }
		case drivePaced:
			cl := &syncClient{conn: rc, vs: h.vs}
			interval := int64(time.Second) * numClients / pacedRate
			p := &pacer{
				interval: interval,
				now:      nowNs,
				sleep:    preciseSleep,
			}
			runners[c].res = &cl.res
			runners[c].pace = p
			runners[c].run = func(deadline int64) {
				// Clients interleave: client c starts c/numClients of an
				// interval after client 0.
				p.start = nowNs() + int64(c)*interval/numClients
				cl.runPaced(p, deadline, src(0))
			}
		}
	}
	start := nowNs()
	var deadline int64
	if b.dur > 0 {
		deadline = start + int64(b.dur)
	}
	runClients(func(c int) { runners[c].run(deadline) })
	out := phaseResult{elapsedNs: nowNs() - start}
	for _, r := range runners {
		out.res.merge(r.res)
		if r.pace != nil {
			out.scheduled += r.pace.i
			out.late += r.pace.late
		}
	}
	return out, nil
}
