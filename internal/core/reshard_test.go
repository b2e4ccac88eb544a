package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"p2kvs/internal/keyspace"
	"p2kvs/internal/kv"
	"p2kvs/internal/lsm"
	"p2kvs/internal/reshard"
	"p2kvs/internal/vfs"
)

// openElastic opens a store in the elastic configuration: Ring
// partitioner, transaction directory, InstanceReset hook, hot cache on.
func openElastic(t *testing.T, fs *vfs.MemFS, root string, workers int) *Store {
	t.Helper()
	return openElasticWith(t, fs, root, workers, lsmFactory(fs, root))
}

func openElasticWith(t *testing.T, fs *vfs.MemFS, root string, workers int, factory EngineFactory, tune ...func(*Options)) *Store {
	t.Helper()
	opts := DefaultOptions(factory)
	opts.Workers = workers
	opts.Partitioner = keyspace.NewConsistent(workers, 64)
	opts.TxnFS = fs
	opts.TxnDir = root + "/txn"
	opts.HotCacheBytes = 1 << 20
	opts.InstanceReset = func(id int) error {
		return vfs.RemoveTree(fs, fmt.Sprintf("%s/inst-%02d", root, id))
	}
	for _, f := range tune {
		f(&opts)
	}
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// engineDump collects worker i's live pairs straight from its engine.
func engineDump(t *testing.T, s *Store, i int) map[string]string {
	t.Helper()
	it, err := s.Engine(i).NewIterator()
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	out := map[string]string{}
	for it.SeekToFirst(); it.Valid(); it.Next() {
		out[string(it.Key())] = string(it.Value())
	}
	if err := it.Error(); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestReshardGrowUnderLoad(t *testing.T) {
	fs := vfs.NewMem()
	s := openElastic(t, fs, "el", 3)
	defer s.Close()
	const n = 2000
	for i := 0; i < n; i++ {
		if err := s.Put([]byte(fmt.Sprintf("key-%05d", i)), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}

	// Concurrent writers and readers throughout the reshard: every
	// acknowledged write must be readable afterwards (read-your-writes
	// across the cutover), and no operation may fail.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var opErr atomic.Value
	lastAcked := make([]atomic.Int64, 8)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				// Each goroutine owns two hot keys: with a single writer
				// per key, the last acked value is the engine value.
				hot := g*2 + i%2
				key := []byte(fmt.Sprintf("hot-%02d", hot))
				val := int64(i) + 1 // ≥ 1, so a zero lastAcked means "never written"
				if err := s.Put(key, []byte(fmt.Sprintf("%d", val))); err != nil {
					opErr.Store(err)
					return
				}
				lastAcked[hot].Store(val)
				if _, err := s.Get([]byte(fmt.Sprintf("key-%05d", (g*131+i)%n))); err != nil {
					opErr.Store(err)
					return
				}
			}
		}(g)
	}

	if err := s.Reshard(context.Background(), 5); err != nil {
		t.Fatalf("Reshard: %v", err)
	}
	close(stop)
	wg.Wait()
	if err := opErr.Load(); err != nil {
		t.Fatalf("operation failed during reshard: %v", err)
	}

	if got := s.Workers(); got != 5 {
		t.Fatalf("Workers() = %d after grow", got)
	}
	if e := s.epoch.Load(); e != 1 {
		t.Fatalf("epoch = %d, want 1", e)
	}
	st := s.ReshardStats()
	if st.State != "done" || st.Completed != 1 || st.From != 3 || st.To != 5 {
		t.Fatalf("reshard stats: %+v", st)
	}
	if st.MovedKeys == 0 {
		t.Fatal("no keys moved in a 3->5 grow")
	}
	if st.BarrierNs <= 0 {
		t.Fatalf("cutover barrier duration not recorded: %d", st.BarrierNs)
	}

	// Every pre-load key still reads back.
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("key-%05d", i)
		v, err := s.Get([]byte(key))
		if err != nil || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("Get(%s) after grow = %q %v", key, v, err)
		}
	}
	// Read-your-writes for the concurrent stream: the last acked value of
	// each hot key (or a later one that raced the shutdown) is served.
	written := 0
	for h := range lastAcked {
		want := lastAcked[h].Load()
		if want == 0 {
			continue // this goroutine never reached the key
		}
		written++
		v, err := s.Get([]byte(fmt.Sprintf("hot-%02d", h)))
		if err != nil {
			t.Fatalf("hot key %d: %v", h, err)
		}
		var got int64
		fmt.Sscanf(string(v), "%d", &got)
		if got < want {
			t.Fatalf("hot key %d regressed: read %d, last acked %d", h, got, want)
		}
	}
	// Cleanup removed the moved ranges: no worker holds a foreign key.
	part := s.route.Load().part
	total := 0
	for i := 0; i < 5; i++ {
		dump := engineDump(t, s, i)
		total += len(dump)
		for k := range dump {
			if part.Pick([]byte(k)) != i {
				t.Fatalf("worker %d still holds foreign key %q after cleanup", i, k)
			}
		}
	}
	if total != n+written {
		t.Fatalf("engines hold %d pairs, want %d", total, n+written)
	}
	// The persisted topology is active at the new shape.
	topo, err := reshard.LoadTopology(fs, "el/txn")
	if err != nil || topo == nil {
		t.Fatalf("topology: %+v, %v", topo, err)
	}
	if topo.Workers != 5 || topo.Epoch != 1 || topo.State != reshard.TopologyActive {
		t.Fatalf("topology after grow: %+v", topo)
	}
}

func TestReshardShrink(t *testing.T) {
	fs := vfs.NewMem()
	s := openElastic(t, fs, "sh", 4)
	defer s.Close()
	const n = 1200
	for i := 0; i < n; i++ {
		if err := s.Put([]byte(fmt.Sprintf("key-%05d", i)), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// Hold a merged iterator across the shrink: retired engines must stay
	// open until Close, so the snapshot remains fully readable.
	preIt, err := s.NewIterator()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Reshard(context.Background(), 2); err != nil {
		t.Fatalf("Reshard shrink: %v", err)
	}
	if got := s.Workers(); got != 2 {
		t.Fatalf("Workers() = %d after shrink", got)
	}
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("key-%05d", i)
		v, err := s.Get([]byte(key))
		if err != nil || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("Get(%s) after shrink = %q %v", key, v, err)
		}
	}
	// Writes after the shrink land on survivors only.
	if err := s.Put([]byte("post-shrink"), []byte("x")); err != nil {
		t.Fatal(err)
	}
	// The pre-shrink iterator still reads the full old snapshot.
	seen := 0
	for preIt.SeekToFirst(); preIt.Valid(); preIt.Next() {
		seen++
	}
	if err := preIt.Error(); err != nil {
		t.Fatalf("pre-shrink iterator: %v", err)
	}
	preIt.Close()
	if seen != n {
		t.Fatalf("pre-shrink iterator saw %d pairs, want %d", seen, n)
	}
	topo, err := reshard.LoadTopology(fs, "sh/txn")
	if err != nil || topo == nil || topo.Workers != 2 || topo.State != reshard.TopologyActive {
		t.Fatalf("topology after shrink: %+v, %v", topo, err)
	}
}

func TestReshardReopen(t *testing.T) {
	fs := vfs.NewMem()
	s := openElastic(t, fs, "ro", 3)
	const n = 600
	for i := 0; i < n; i++ {
		if err := s.Put([]byte(fmt.Sprintf("key-%05d", i)), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Reshard(context.Background(), 4); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopening at the old worker count must refuse: half-routed data.
	opts := DefaultOptions(lsmFactory(fs, "ro"))
	opts.Workers = 3
	opts.Partitioner = keyspace.NewConsistent(3, 64)
	opts.TxnFS = fs
	opts.TxnDir = "ro/txn"
	if _, err := Open(opts); err == nil {
		t.Fatal("reopen at stale worker count succeeded")
	}
	// Reopening at the committed count serves everything.
	s2 := openElastic(t, fs, "ro", 4)
	defer s2.Close()
	if e := s2.epoch.Load(); e != 1 {
		t.Fatalf("epoch after reopen = %d", e)
	}
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("key-%05d", i)
		v, err := s2.Get([]byte(key))
		if err != nil || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("Get(%s) after reopen = %q %v", key, v, err)
		}
	}
}

func TestReshardCleanupRecovery(t *testing.T) {
	// A crash after the cutover commit but before cleanup finishes leaves
	// TOPOLOGY in the cleanup state. Simulate it: complete a grow, then
	// rewrite the topology as if cleanup had not run, plant a stale
	// foreign key, and reopen — Open must finish the cleanup.
	fs := vfs.NewMem()
	s := openElastic(t, fs, "cr", 2)
	const n = 400
	for i := 0; i < n; i++ {
		if err := s.Put([]byte(fmt.Sprintf("key-%05d", i)), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Reshard(context.Background(), 3); err != nil {
		t.Fatal(err)
	}
	// Plant a foreign key on worker 0 (any key it does not own).
	part := s.route.Load().part
	var foreign []byte
	for i := 0; ; i++ {
		k := []byte(fmt.Sprintf("stale-%05d", i))
		if part.Pick(k) != 0 {
			foreign = k
			break
		}
	}
	if err := s.Engine(0).Put(foreign, []byte("stale")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := reshard.SaveTopology(fs, "cr/txn", reshard.Topology{
		Workers: 3, PrevWorkers: 2, Epoch: 1, State: reshard.TopologyCleanup,
	}); err != nil {
		t.Fatal(err)
	}
	s2 := openElastic(t, fs, "cr", 3)
	defer s2.Close()
	for i := 0; i < 3; i++ {
		for k := range engineDump(t, s2, i) {
			if s2.route.Load().part.Pick([]byte(k)) != i {
				t.Fatalf("worker %d holds foreign key %q after cleanup recovery", i, k)
			}
		}
	}
	topo, err := reshard.LoadTopology(fs, "cr/txn")
	if err != nil || topo == nil || topo.State != reshard.TopologyActive {
		t.Fatalf("topology after recovery: %+v, %v", topo, err)
	}
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("key-%05d", i)
		if v, err := s2.Get([]byte(key)); err != nil || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("Get(%s) after recovery = %q %v", key, v, err)
		}
	}
}

func TestReshardAbortKeepsOldShape(t *testing.T) {
	fs := vfs.NewMem()
	s := openElastic(t, fs, "ab", 3)
	defer s.Close()
	const n = 500
	for i := 0; i < n; i++ {
		if err := s.Put([]byte(fmt.Sprintf("key-%05d", i)), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // abort before the copy can finish
	if err := s.Reshard(ctx, 5); err == nil {
		t.Fatal("reshard with dead context succeeded")
	}
	if got := s.Workers(); got != 3 {
		t.Fatalf("Workers() = %d after abort, want 3", got)
	}
	st := s.ReshardStats()
	if st.State != "aborted" || st.Aborted != 1 {
		t.Fatalf("stats after abort: %+v", st)
	}
	if e := s.epoch.Load(); e != 0 {
		t.Fatalf("epoch advanced on abort: %d", e)
	}
	// The store still serves and writes at the old shape.
	for i := 0; i < n; i += 13 {
		key := fmt.Sprintf("key-%05d", i)
		if v, err := s.Get([]byte(key)); err != nil || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("Get(%s) after abort = %q %v", key, v, err)
		}
	}
	if err := s.Put([]byte("after-abort"), []byte("x")); err != nil {
		t.Fatal(err)
	}
	// A later attempt succeeds from the rolled-back state.
	if err := s.Reshard(context.Background(), 4); err != nil {
		t.Fatalf("reshard after abort: %v", err)
	}
	if got := s.Workers(); got != 4 {
		t.Fatalf("Workers() = %d", got)
	}
}

func TestReshardUnsupportedAndNoop(t *testing.T) {
	fs := vfs.NewMem()
	s := openStore(t, fs, 3) // hash partitioner: not elastic
	defer s.Close()
	if err := s.Reshard(context.Background(), 4); !errors.Is(err, ErrReshardUnsupported) {
		t.Fatalf("hash store reshard err = %v", err)
	}
	fs2 := vfs.NewMem()
	e := openElastic(t, fs2, "np", 3)
	defer e.Close()
	if err := e.Reshard(context.Background(), 3); err != nil {
		t.Fatalf("same-N reshard = %v, want nil no-op", err)
	}
	if err := e.Reshard(context.Background(), 0); err == nil {
		t.Fatal("reshard to zero workers succeeded")
	}
}

// TestReshardShrinkPurgesStaleLeftovers: copies a failed or crashed
// shrink left on the survivors must not outlive a later delete on the
// key's real owner — the copy stream carries live pairs only, so only
// the prepare-time purge can remove them.
func TestReshardShrinkPurgesStaleLeftovers(t *testing.T) {
	fs := vfs.NewMem()
	s := openElastic(t, fs, "stale", 3)
	defer s.Close()
	ring := keyspace.NewConsistent(3, 64)
	var k []byte
	for i := 0; ; i++ {
		if k = []byte(fmt.Sprintf("key-%04d", i)); ring.Pick(k) == 2 {
			break
		}
	}
	if err := s.Put(k, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := s.Engine(i).Put(k, []byte("stale")); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Delete(k); err != nil {
		t.Fatal(err)
	}
	if err := s.Reshard(context.Background(), 2); err != nil {
		t.Fatalf("Reshard: %v", err)
	}
	if v, err := s.Get(k); !errors.Is(err, kv.ErrNotFound) {
		t.Fatalf("Get(%s) after shrink = %q, %v; want ErrNotFound (deleted key resurrected)", k, v, err)
	}
}

func TestReshardConcurrentTxns(t *testing.T) {
	// Cross-partition transactions running through the cutover: every
	// committed batch must be fully visible after the flip (prepared
	// transactions drain inside the pause budget, retrying as needed).
	fs := vfs.NewMem()
	s := openElastic(t, fs, "tx", 3)
	defer s.Close()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var txnErr atomic.Value
	var committed [2]atomic.Int64  // per writer: it wrote batches 0..committed-1
	started := make(chan struct{}) // closed by the first commit (or failure)
	var once sync.Once
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				var b kv.Batch
				for j := 0; j < 4; j++ {
					b.Put([]byte(fmt.Sprintf("txn-%d-%d-%d", g, i, j)), []byte("v"))
				}
				err := s.Write(&b)
				if err == nil {
					committed[g].Add(1)
				}
				once.Do(func() { close(started) })
				if err != nil {
					txnErr.Store(err)
					return
				}
			}
		}(g)
	}
	<-started // the reshard window must hold transactions
	if err := s.Reshard(context.Background(), 4); err != nil {
		t.Fatalf("Reshard under txn load: %v", err)
	}
	close(stop)
	wg.Wait()
	if err := txnErr.Load(); err != nil {
		t.Fatalf("transaction failed during reshard: %v", err)
	}
	// Spot-check a sample of each writer's committed batches: all four legs
	// visible.
	for g := 0; g < 2; g++ {
		for i := int64(0); i < committed[g].Load(); i += 3 {
			for j := 0; j < 4; j++ {
				key := fmt.Sprintf("txn-%d-%d-%d", g, i, j)
				if _, err := s.Get([]byte(key)); err != nil {
					t.Fatalf("committed txn leg %s missing after reshard: %v", key, err)
				}
			}
		}
	}
}

// soleTenant wraps an engine factory with the invariant a directory-backed
// engine depends on: at most one open engine per instance directory.
type soleTenant struct {
	mu        sync.Mutex
	open      map[int]int
	violation string
}

type tenantEngine struct {
	*lsm.DB
	left func()
}

func (e *tenantEngine) Close() error {
	err := e.DB.Close()
	e.left()
	return err
}

func (st *soleTenant) wrap(inner EngineFactory) EngineFactory {
	return func(id int, filter func(uint64) bool) (kv.Engine, error) {
		st.mu.Lock()
		if st.open[id] > 0 && st.violation == "" {
			st.violation = fmt.Sprintf("instance %d opened while another engine still holds its directory", id)
		}
		st.mu.Unlock()
		e, err := inner(id, filter)
		if err != nil {
			return nil, err
		}
		st.mu.Lock()
		st.open[id]++
		st.mu.Unlock()
		var once sync.Once
		return &tenantEngine{DB: e.(*lsm.DB), left: func() {
			once.Do(func() {
				st.mu.Lock()
				st.open[id]--
				st.mu.Unlock()
			})
		}}, nil
	}
}

// TestReshardGrowReusesRetiredID: a shrink parks the retired worker with
// its engine open; a later grow that hands the same id to a new worker
// must close that engine before it wipes and reopens the directory.
// Otherwise two engines write one directory and what the new one
// acknowledged is gone after a crash.
func TestReshardGrowReusesRetiredID(t *testing.T) {
	fs := vfs.NewMem()
	tenants := &soleTenant{open: map[int]int{}}
	factory := tenants.wrap(lsmFactory(fs, "el"))
	s := openElasticWith(t, fs, "el", 2, factory)
	put := func(round string, n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if err := s.Put([]byte(fmt.Sprintf("key-%04d", i)), []byte(round)); err != nil {
				t.Fatal(err)
			}
		}
	}
	const n = 400
	put("before", n)
	for _, to := range []int{1, 2} {
		if err := s.Reshard(context.Background(), to); err != nil {
			t.Fatalf("Reshard to %d: %v", to, err)
		}
	}
	put("after", n) // acked on the regrown worker 1, fsynced (PolicyCommit)

	fs.Crash()
	s.Close()
	fs.Restart()
	if tenants.violation != "" {
		t.Fatal(tenants.violation)
	}
	s2 := openElasticWith(t, fs, "el", 2, factory)
	defer s2.Close()
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("key-%04d", i)
		if v, err := s2.Get([]byte(k)); err != nil || string(v) != "after" {
			t.Fatalf("after crash: Get(%s) = %q, %v; the acked value is \"after\"", k, v, err)
		}
	}
}

// A barrier that times out releases every worker it reached, also one that
// reaches its barrier only after the coordinator gave up: worker 1 is held
// by an earlier barrier, so the second one times out before worker 1 runs
// its park, which must then find the released channel and not block.
func TestBarrierTimeoutReleasesLateWorker(t *testing.T) {
	fs := vfs.NewMem()
	s := openElastic(t, fs, "bt", 2)
	ws := s.route.Load().workers
	hold, err := barrierWorkers(ws[1:], nil)
	if err != nil {
		t.Fatal(err)
	}
	timeout := make(chan struct{})
	time.AfterFunc(20*time.Millisecond, func() { close(timeout) })
	if _, err := barrierWorkers(ws, timeout); !errors.Is(err, errBarrierTimeout) {
		t.Fatalf("barrier over a held worker: err %v, want errBarrierTimeout", err)
	}
	close(hold)
	var key []byte
	for i := 0; key == nil; i++ {
		if k := []byte(fmt.Sprintf("k%d", i)); s.route.Load().pick(k) == ws[1] {
			key = k
		}
	}
	done := make(chan error, 1)
	go func() { done <- s.Put(key, []byte("v")) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("worker 1 still parked on the timed-out barrier") // leaks s: Close would wait on the worker
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}
