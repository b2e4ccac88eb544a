// portability demonstrates §4.6 of the paper: the same p2KVS accessing
// layer runs unchanged over four different engine families — the
// RocksDB-style and LevelDB-style LSM engines, the WiredTiger-style
// B+-tree engine, and the KVell-style slab engine — and OBM adapts to
// each engine's capabilities (WriteBatch/multiget on RocksDB, neither on
// WiredTiger).
package main

import (
	"fmt"
	"log"
	"sync"
	"time"

	"p2kvs"
	"p2kvs/internal/loadgen"
)

const (
	ops       = 20000
	threads   = 8
	workers   = 4
	valueSize = 128
)

func main() {
	fmt.Printf("%-12s %-10s %-10s %-14s\n", "engine", "write/s", "read/s", "OBM batching")
	for _, engine := range []p2kvs.EngineKind{
		p2kvs.EngineRocksDB,
		p2kvs.EngineLevelDB,
		p2kvs.EngineWiredTiger,
		p2kvs.EngineKVell,
	} {
		store, err := p2kvs.Open(p2kvs.Options{
			Dir:      "port-db",
			Workers:  workers,
			Engine:   engine,
			InMemory: true,
		})
		if err != nil {
			log.Fatal(err)
		}

		writeQPS := drive(store, true)
		readQPS := drive(store, false)

		// How much OBM aggregated on this engine.
		agg := store.StatsSnapshot().Aggregate
		avgBatch := float64(agg.Ops) / float64(agg.Batches)
		store.Close()
		fmt.Printf("%-12s %-10.0f %-10.0f %.2f ops/batch\n", engine, writeQPS, readQPS, avgBatch)
	}
	fmt.Println("\nSame accessing layer, four engines — the framework treats each as a black box.")
}

func drive(store *p2kvs.Store, write bool) float64 {
	var wg sync.WaitGroup
	start := time.Now()
	for t := 0; t < threads; t++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			ch := loadgen.NewUniform(ops, int64(tid+1))
			for i := 0; i < ops/threads; i++ {
				idx := ch.Next()
				if write {
					if err := store.Put(loadgen.Key(idx), loadgen.Value(idx, 0, valueSize)); err != nil {
						log.Fatal(err)
					}
				} else {
					if _, err := store.Get(loadgen.Key(idx)); err != nil && err != p2kvs.ErrNotFound {
						log.Fatal(err)
					}
				}
			}
		}(t)
	}
	wg.Wait()
	return float64(ops) / time.Since(start).Seconds()
}
