// ycsb-demo reproduces the paper's headline comparison in miniature: the
// same YCSB-A workload (50% update / 50% read, zipfian) against a single
// RocksDB-style instance and against p2KVS-8, printing the speedup. It
// is the workload the paper's introduction motivates: small KV pairs,
// high concurrency, fast storage.
package main

import (
	"fmt"
	"log"
	"sync"
	"time"

	"p2kvs"
	"p2kvs/internal/loadgen"
)

// The workload runs against the simulated Optane NVMe in scaled time (see
// DESIGN.md "Time and cost model"; the host software costs the paper's
// figures also charge are configured in internal/bench). On a raw
// in-memory filesystem both configurations are equally unconstrained and
// the comparison would be meaningless.
const (
	loadKeys  = 4000
	opsTotal  = 6000
	threads   = 16
	valueSize = 128
	devScale  = 300
)

func main() {
	single := run("single RocksDB instance", 1)
	sharded := run("p2KVS-8", 8)
	fmt.Printf("\np2KVS-8 speedup over single instance on YCSB-A: %.2fx\n", sharded/single)
}

func run(label string, workers int) float64 {
	store, err := p2kvs.Open(p2kvs.Options{
		Dir:            "ycsb-demo",
		Workers:        workers,
		InMemory:       true,
		SimulateDevice: "nvme",
		DeviceScale:    devScale,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer store.Close()

	// Load phase.
	if err := loadgen.Preload(store, loadKeys, valueSize); err != nil {
		log.Fatal(err)
	}

	// Run phase: YCSB-A from Table 1.
	spec := loadgen.MustLookup("ycsb-a")
	frontier := loadgen.NewFrontier(loadKeys)
	var wg sync.WaitGroup
	start := time.Now()
	for t := 0; t < threads; t++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			gen := loadgen.NewGenerator(spec, loadKeys, frontier, int64(tid+1))
			for i := 0; i < opsTotal/threads; i++ {
				err := loadgen.Exec(store, gen.Next(), valueSize, 0, nil)
				if err != nil && err != p2kvs.ErrNotFound {
					log.Fatal(err)
				}
			}
		}(t)
	}
	wg.Wait()
	elapsed := time.Since(start)
	// Simulated QPS: measured rate times the device time scale.
	qps := float64(opsTotal) / elapsed.Seconds() * devScale
	fmt.Printf("%-28s %8.0f sim ops/s (%d threads, %v wall)\n", label, qps, threads, elapsed.Round(time.Millisecond))
	return qps
}
