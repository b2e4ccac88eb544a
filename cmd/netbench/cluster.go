package main

// Cluster scaling benchmark (-cluster): boots in-process serving tiers —
// first one primary, then -cluster N primaries each with a read
// replica — drives batched GETs through the
// consistent-hash cluster client against both, and reports the aggregate
// throughput ratio plus replica staleness under a sustained write burst.
// The result is emitted as a single BENCH json line for scripted
// consumption. Everything runs in memory inside this process: the
// benchmark exercises the real RESP wire, the real replication stream,
// and the real client batching, with no external setup.
//
// Each node's filesystem is routed through its own simulated SATA device
// (service times slowed 5x so sub-100us timer quantization stays small
// next to them) and the keyspace is flushed to SSTs behind a block cache
// smaller than the dataset, so per-node GET throughput is bound by that
// node's device service time — the SSD-bound regime the paper evaluates.
// That is what makes N-node scaling measurable (and honest) even when
// the host has fewer cores than nodes: adding a node adds a device,
// exactly as it does in a real deployment.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"p2kvs"
	"p2kvs/internal/cluster"
	"p2kvs/internal/loadgen"
	"p2kvs/internal/server"
	"p2kvs/internal/vfs"
)

// The tier's shape is fixed: every published number used these values.
const (
	clusterBacklog  = 64 << 20
	clusterReplicas = 1   // read replicas per primary
	clusterWorkers  = 2   // store workers per node
	clusterBatch    = 128 // keys per MGET/MSET wire batch
	clusterDevScale = 5.0
	clusterSecs     = 2 * time.Second // measurement window per phase
	// clusterBlockCache keeps the per-instance LSM block cache well under
	// the benchmark dataset so uniform GETs miss DRAM and pay device time.
	clusterBlockCache = 256 << 10
)

// nodeOptions is every node's store: its own in-memory filesystem behind
// its own simulated SATA device, with the block cache clamped.
var nodeOptions = p2kvs.Options{
	Dir:              "db",
	InMemory:         true,
	Workers:          clusterWorkers,
	SimulateDevice:   "sata",
	DeviceScale:      clusterDevScale,
	BlockCacheSize:   clusterBlockCache,
	ReplBacklogBytes: clusterBacklog,
}

// bootNode starts one in-process replication-enabled node and returns its
// address, the store handle (valid until the node full-syncs, which
// replaces it — primaries keep theirs), and a shutdown func.
func bootNode(replicaOf string) (string, *p2kvs.Store, func(), error) {
	st, err := p2kvs.Open(nodeOptions)
	if err != nil {
		return "", nil, nil, err
	}
	srv := server.New(server.Config{
		Store:        st,
		ReplDir:      "repl",
		ReplFS:       vfs.NewMem(),
		RestoreStore: p2kvs.RestoreReplica(nodeOptions),
		ReplicaOf:    replicaOf,
	})
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, nil, err
	}
	done := make(chan struct{})
	go func() {
		srv.Serve(lis)
		close(done)
	}()
	shutdown := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		<-done
	}
	return lis.Addr().String(), st, shutdown, nil
}

// bootTier starts n primaries with replicasPer replicas each and
// returns the primaries' store handles alongside the routing table.
func bootTier(n, replicasPer int) ([]cluster.Node, []*p2kvs.Store, func(), error) {
	var nodes []cluster.Node
	var primaries []*p2kvs.Store
	var shutdowns []func()
	teardown := func() {
		for i := len(shutdowns) - 1; i >= 0; i-- {
			shutdowns[i]()
		}
	}
	for i := 0; i < n; i++ {
		addr, st, stop, err := bootNode("")
		if err != nil {
			teardown()
			return nil, nil, nil, err
		}
		shutdowns = append(shutdowns, stop)
		primaries = append(primaries, st)
		node := cluster.Node{Addr: addr}
		for r := 0; r < replicasPer; r++ {
			raddr, _, rstop, err := bootNode(addr)
			if err != nil {
				teardown()
				return nil, nil, nil, err
			}
			shutdowns = append(shutdowns, rstop)
			node.Replicas = append(node.Replicas, raddr)
		}
		nodes = append(nodes, node)
	}
	return nodes, primaries, teardown, nil
}

// blockReads sums the block-cache misses of the primaries' engines: the
// data blocks their GETs had to read from the device, the number that
// shows whether a phase was actually IO-bound.
func blockReads(primaries []*p2kvs.Store) int64 {
	var n int64
	for _, st := range primaries {
		for i := 0; i < st.Workers(); i++ {
			if c, ok := st.Engine(i).(interface{ BlockCacheStats() (int64, int64) }); ok {
				_, misses := c.BlockCacheStats()
				n += misses
			}
		}
	}
	return n
}

// flushTier pushes every primary's memtables to SSTs and compacts each
// instance, so the measured GETs read from the device rather than the
// write buffer and both tiers see the same settled read amplification
// (otherwise the bigger 1-node dataset carries more L0 files per lookup
// and the comparison flatters the cluster).
func flushTier(primaries []*p2kvs.Store) error {
	for _, st := range primaries {
		if err := st.Flush(); err != nil {
			return err
		}
		for i := 0; i < st.Workers(); i++ {
			if c, ok := st.Engine(i).(interface{ CompactAll() error }); ok {
				if err := c.CompactAll(); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// loadKeys MSets the whole keyspace through the cluster client.
func loadKeys(nodes []cluster.Node, nkeys int) error {
	const batch = clusterBatch
	cl, err := cluster.New(nodes, cluster.Options{MaxBatch: batch})
	if err != nil {
		return err
	}
	defer cl.Close()
	keys := make([][]byte, 0, batch)
	vals := make([][]byte, 0, batch)
	for i := 0; i < nkeys; i += batch {
		keys, vals = keys[:0], vals[:0]
		for j := i; j < i+batch && j < nkeys; j++ {
			keys = append(keys, loadgen.Key(uint64(j)))
			vals = append(vals, loadgen.Value(uint64(j), 0, valueSize))
		}
		if err := cl.MSet(keys, vals); err != nil {
			return err
		}
	}
	return nil
}

// measureGets drives conns independent cluster clients (each with its
// own connection pool) through uniform batched MGETs for clusterSecs and
// returns aggregate keys/sec. Every batch is checked for emptiness —
// a miss means the load phase lied.
func measureGets(nodes []cluster.Node, nkeys, conns int, replicaReads bool) (float64, int64, error) {
	const batch = clusterBatch
	var total, misses atomic.Int64
	errs := make([]error, conns)
	var wg sync.WaitGroup
	start := time.Now()
	stop := start.Add(clusterSecs)
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl, err := cluster.New(nodes, cluster.Options{MaxBatch: batch, ReadFromReplicas: replicaReads})
			if err != nil {
				errs[c] = err
				return
			}
			defer cl.Close()
			rng := rand.New(rand.NewSource(int64(c) + 1))
			buf := make([][]byte, batch)
			for time.Now().Before(stop) {
				for i := range buf {
					buf[i] = loadgen.Key(uint64(rng.Intn(nkeys)))
				}
				got, err := cl.MGet(buf)
				if err != nil {
					errs[c] = err
					return
				}
				for _, v := range got {
					if v == nil {
						misses.Add(1)
					}
				}
				total.Add(int64(len(buf)))
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	if err := errors.Join(errs...); err != nil {
		return 0, 0, err
	}
	if m := misses.Load(); m > 0 && !replicaReads {
		return 0, 0, fmt.Errorf("%d GET misses on a fully loaded keyspace", m)
	}
	return float64(total.Load()) / elapsed.Seconds(), total.Load(), nil
}

// measureStaleness hammers writes through the primaries for dur while
// sampling each replica's INFO lag, then reports the worst lag observed
// mid-burst and how long the tier took to fully converge afterwards.
func measureStaleness(nodes []cluster.Node, nkeys int, dur time.Duration) (maxLag int64, convergeMs int64, err error) {
	const batch = clusterBatch
	cl, err := cluster.New(nodes, cluster.Options{MaxBatch: batch})
	if err != nil {
		return 0, 0, err
	}
	defer cl.Close()
	var replicas []*cluster.Conn
	for _, n := range nodes {
		for _, r := range n.Replicas {
			c := cluster.NewConn(r, 0)
			defer c.Close()
			replicas = append(replicas, c)
		}
	}
	lag := func(c *cluster.Conn) int64 { // -1: unknown (no heartbeat yet, or INFO failed)
		f, err := loadgen.FetchInfo(c)
		if err != nil {
			return -1
		}
		return f.Int("replica_lag_gsn")
	}
	stop := time.Now().Add(dur)
	keys := make([][]byte, batch)
	vals := make([][]byte, batch)
	i := 0
	for time.Now().Before(stop) {
		for j := range keys {
			keys[j] = loadgen.Key(uint64(i % nkeys))
			vals[j] = loadgen.Value(uint64(i%nkeys), 0, valueSize)
			i++
		}
		if err := cl.MSet(keys, vals); err != nil {
			return 0, 0, err
		}
		for _, r := range replicas {
			maxLag = max(maxLag, lag(r))
		}
	}
	convergeStart := time.Now()
	deadline := convergeStart.Add(10 * time.Second)
	for i, r := range replicas {
		for lag(r) != 0 {
			if time.Now().After(deadline) {
				return maxLag, 0, fmt.Errorf("replica %d did not converge within 10s", i)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	return maxLag, time.Since(convergeStart).Milliseconds(), nil
}

// readsPerGet guards the division when a phase measured nothing.
func readsPerGet(reads, keys int64) float64 {
	if keys == 0 {
		return 0
	}
	return float64(reads) / float64(keys)
}

func runClusterBench(nNodes, nkeys, conns int) {
	fail := func(stage string, err error) {
		fatal(fmt.Errorf("cluster %s: %w", stage, err))
	}
	fmt.Printf("netbench cluster: nodes=%d replicas/node=%d workers/node=%d keys=%d value=%dB batch=%d conns=%d device=sata scale=%g\n",
		nNodes, clusterReplicas, clusterWorkers, nkeys, valueSize, clusterBatch, conns, clusterDevScale)

	// Baseline: one primary serving the whole keyspace.
	oneNode, onePrim, stopOne, err := bootTier(1, 0)
	if err != nil {
		fail("boot 1-node", err)
	}
	if err := loadKeys(oneNode, nkeys); err != nil {
		stopOne()
		fail("load 1-node", err)
	}
	if err := flushTier(onePrim); err != nil {
		stopOne()
		fail("flush 1-node", err)
	}
	reads0 := blockReads(onePrim)
	ops1, keys1, err := measureGets(oneNode, nkeys, conns, false)
	rpg1 := readsPerGet(blockReads(onePrim)-reads0, keys1)
	stopOne()
	if err != nil {
		fail("measure 1-node", err)
	}
	fmt.Printf("1-node  GET : %12.0f keys/sec (%.2f block reads/GET)\n", ops1, rpg1)

	// The tier under test: nNodes primaries, each with its replicas.
	nodes, primaries, stopTier, err := bootTier(nNodes, clusterReplicas)
	if err != nil {
		fail("boot tier", err)
	}
	defer stopTier()
	if err := loadKeys(nodes, nkeys); err != nil {
		fail("load tier", err)
	}
	if err := flushTier(primaries); err != nil {
		fail("flush tier", err)
	}
	readsN0 := blockReads(primaries)
	opsN, keysN, err := measureGets(nodes, nkeys, conns, false)
	if err != nil {
		fail("measure tier", err)
	}
	rpgN := readsPerGet(blockReads(primaries)-readsN0, keysN)
	fmt.Printf("%d-node  GET : %12.0f keys/sec (%.2fx, %.2f block reads/GET)\n", nNodes, opsN, opsN/ops1, rpgN)

	// Replica fanout needs the replicas caught up, or misses would count
	// as staleness rather than routing.
	if _, _, err := measureStaleness(nodes, nkeys, 0); err != nil {
		fail("replica warmup", err)
	}
	opsR, _, err := measureGets(nodes, nkeys, conns, true)
	if err != nil {
		fail("measure replica fanout", err)
	}
	fmt.Printf("fanout  GET : %12.0f keys/sec (primaries+replicas)\n", opsR)
	maxLag, convergeMs, err := measureStaleness(nodes, nkeys, clusterSecs)
	if err != nil {
		fail("staleness", err)
	}
	fmt.Printf("staleness   : max replica_lag_gsn=%d under write burst; converged in %dms\n", maxLag, convergeMs)

	loadgen.EmitBench(os.Stdout, "cluster_get_scaling",
		"nodes", nNodes,
		"replicas_per_node", clusterReplicas,
		"workers_per_node", clusterWorkers,
		"keys", nkeys,
		"value_size", valueSize,
		"batch", clusterBatch,
		"conns", conns,
		"device", "sata",
		"device_scale", clusterDevScale,
		"block_reads_per_get_1node", rpg1,
		"block_reads_per_get_nnode", rpgN,
		"get_ops_1node", ops1,
		"get_ops_nnode", opsN,
		"scaling", opsN/ops1,
		"replica_fanout_get_ops", opsR,
		"replica_lag_gsn_max", maxLag,
		"replica_converge_ms", convergeMs)
}
