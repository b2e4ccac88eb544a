package main

import (
	"context"
	"fmt"
	"net"
	"sync"
	"time"

	"p2kvs/internal/core"
	"p2kvs/internal/kv"
	"p2kvs/internal/lsm"
	"p2kvs/internal/server"
	"p2kvs/internal/vfs"
)

// Fixed configuration: the same on both sides of every comparison.
// Everything not named here is the product's default (lsm.RocksDBOptions:
// WAL never synced, compression off, 8 MiB block cache per instance).
const (
	numWorkers = 4
	maxBatch   = 32
	queueDepth = 4096
	// numClients is the number of load-generating goroutines. It equals
	// nproc of the machine the benchmark was calibrated on and is a
	// constant, not derived at run time: queue depth comes from async
	// windows and pipelining, not from more threads.
	numClients    = 2
	asyncWindow   = 64
	hotCacheBytes = 32 << 20
	storeDir      = "p2"
)

// harness is one opened store with everything the benchmark hangs on it.
type harness struct {
	fs    *meteredFS
	store *core.Store
	dbs   []*lsm.DB // the undecorated engines, for Perf/Metrics/BlockCacheStats
	tr    *tracer   // nil in untraced runs
	vs    *versions
	keys  uint64

	srv     *server.Server
	addr    string
	serveWG sync.WaitGroup
}

// openHarness opens an empty store on a fresh in-memory filesystem. All
// timing is real host time on vfs.NewMem(): no simulated device.
func openHarness(keys uint64, hotCache int64, tr *tracer) (*harness, error) {
	h := &harness{
		fs:   newMeteredFS(vfs.NewMem(), tr),
		dbs:  make([]*lsm.DB, numWorkers),
		tr:   tr,
		vs:   newVersions(keys),
		keys: keys,
	}
	factory := func(id int, filter func(uint64) bool) (kv.Engine, error) {
		db, err := lsm.OpenWith(instDir(id), lsm.RocksDBOptions(h.fs), lsm.OpenOptions{RecoverFilter: filter})
		if err != nil {
			return nil, err
		}
		h.dbs[id] = db
		if tr != nil {
			return &tracedEngine{DB: db, tr: tr, shard: id}, nil
		}
		return db, nil
	}
	opts := core.DefaultOptions(factory)
	opts.Workers = numWorkers
	opts.OBM = true
	opts.MaxBatch = maxBatch
	opts.QueueDepth = queueDepth
	opts.Admission = core.AdmitBlock
	opts.HotCacheBytes = hotCache
	opts.TxnFS = h.fs
	opts.TxnDir = storeDir + "/txn"
	st, err := core.Open(opts)
	if err != nil {
		return nil, fmt.Errorf("open store: %w", err)
	}
	h.store = st
	return h, nil
}

func instDir(id int) string { return fmt.Sprintf("%s/inst-%02d", storeDir, id) }

func storeDirs() []string {
	dirs := []string{storeDir + "/txn"}
	for i := 0; i < numWorkers; i++ {
		dirs = append(dirs, instDir(i))
	}
	return dirs
}

// serve starts the RESP server in front of the store on a loopback port.
func (h *harness) serve() error {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	h.srv = server.New(server.Config{Store: h.store})
	h.addr = lis.Addr().String()
	h.serveWG.Add(1)
	go func() {
		defer h.serveWG.Done()
		h.srv.Serve(lis) // returns nil once Shutdown closes the listener
	}()
	return nil
}

// close stops the server, if any, and the store, and waits for both.
func (h *harness) close() error {
	if h.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		err := h.srv.Shutdown(ctx) // drains connections, then closes the store
		h.serveWG.Wait()
		return err
	}
	return h.store.Close()
}

// runClients runs fn once per client concurrently and waits for all.
func runClients(fn func(client int)) {
	var wg sync.WaitGroup
	for c := 0; c < numClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			fn(c)
		}(c)
	}
	wg.Wait()
}

// preload writes every key once, each by its owner, in a seeded
// pseudo-random order, then flushes and compacts every instance so the
// window starts from a settled tree.
func (h *harness) preload(seed uint64) error {
	perClient := h.keys / numClients
	var res [numClients]clientResult
	runClients(func(c int) {
		r := newRNG(seed, 'p', uint64(c))
		// k -> (a*k + b) mod perClient is a permutation when a and
		// perClient are coprime.
		a, b := r.intn(perClient)|1, r.intn(perClient)
		for gcd(a, perClient) != 1 {
			a += 2
		}
		k := uint64(0)
		cl := newAsyncClient(h.store, h.vs, asyncWindow)
		cl.run(func(int64) (uint64, bool, bool) {
			if k == perClient {
				return 0, false, false
			}
			slot := (a*k + b) % perClient
			k++
			return slot*numClients + uint64(c), true, true
		})
		res[c] = cl.res
	})
	for c := range res {
		if res[c].failed > 0 {
			return fmt.Errorf("preload: %d writes failed: %w", res[c].failed, res[c].firstErr)
		}
	}
	return h.settle()
}

func gcd(a, b uint64) uint64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// settle flushes every memtable and compacts until no level is over
// budget, the instances in parallel.
func (h *harness) settle() error {
	errs := make([]error, len(h.dbs))
	var wg sync.WaitGroup
	for i, db := range h.dbs {
		wg.Add(1)
		go func(i int, db *lsm.DB) {
			defer wg.Done()
			errs[i] = db.CompactAll()
		}(i, db)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("settle: %w", err)
		}
	}
	return nil
}

// audit re-reads n sampled keys after every request has completed and
// checks each against its last acknowledged version.
func (h *harness) audit(seed uint64, n int) (attempted, failed int64, first error) {
	r := newRNG(seed, 'a')
	var key [keyLen]byte
	for i := 0; i < n; i++ {
		id := r.intn(h.keys)
		want := h.vs.acked[id].Load()
		if want == 0 {
			continue // never written: nothing was acknowledged
		}
		attempted++
		putKey(key[:], id)
		v, err := h.store.Get(key[:])
		if err == nil {
			var got uint32
			if got, err = checkValue(v, id); err == nil && got != want {
				err = fmt.Errorf("version %d, last acknowledged %d", got, want)
			}
		}
		if err != nil {
			failed++
			if first == nil {
				first = fmt.Errorf("audit of key id %d: %w", id, err)
			}
		}
	}
	return attempted, failed, first
}

// spaceSampler averages space amplification over a window: a single
// reading at the end would depend on where the compactions happen to be.
type spaceSampler struct {
	h    *harness
	quit chan struct{}
	done chan struct{}
	sum  float64
	n    int
	err  error
}

const spaceSampleEvery = 100 * time.Millisecond

// sampleSpace starts sampling bytes on the filesystem per live user byte.
func (h *harness) sampleSpace() *spaceSampler {
	s := &spaceSampler{h: h, quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(spaceSampleEvery)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				s.sample()
			case <-s.quit:
				s.sample() // at least one reading, at the window's end
				return
			}
		}
	}()
	return s
}

func (s *spaceSampler) sample() {
	live := s.h.vs.live.Load()
	bytes, err := s.h.fs.liveBytes(storeDirs())
	if err != nil {
		s.err = err
		return
	}
	if live > 0 {
		s.sum += float64(bytes) / float64(live*userBytesPerPut)
		s.n++
	}
}

// stop ends the sampling and returns the mean.
func (s *spaceSampler) stop() (float64, error) {
	close(s.quit)
	<-s.done
	if s.err != nil {
		return 0, s.err
	}
	return s.sum / float64(s.n), nil
}
