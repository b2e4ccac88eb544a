package server

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"p2kvs/internal/core"
	"p2kvs/internal/keyspace"
	"p2kvs/internal/kv"
	"p2kvs/internal/vfs"
	"p2kvs/internal/wal"
)

// stubEngine is an in-memory engine with batch-path counters and a
// gateable write path, used to prove server-level behaviour (pipeline
// coalescing, loadshed, timeout, drain) deterministically.
type stubEngine struct {
	mu   sync.Mutex
	data map[string]string

	batchWrites atomic.Int64 // Write (WriteBatch) calls
	batchOps    atomic.Int64 // ops inside Write calls
	multiGets   atomic.Int64 // MultiGet calls
	multiKeys   atomic.Int64 // keys inside MultiGet calls

	// gate, when non-nil, blocks every write until closed.
	gate chan struct{}
	// entered counts write calls that began (possibly parked on gate).
	entered atomic.Int64
}

func newStubEngine(gate chan struct{}) *stubEngine {
	return &stubEngine{data: make(map[string]string), gate: gate}
}

func (e *stubEngine) waitGate() {
	if e.gate != nil {
		<-e.gate
	}
}

func (e *stubEngine) Put(key, value []byte) error {
	e.entered.Add(1)
	e.waitGate()
	e.mu.Lock()
	e.data[string(key)] = string(value)
	e.mu.Unlock()
	return nil
}

func (e *stubEngine) Get(key []byte) ([]byte, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	v, ok := e.data[string(key)]
	if !ok {
		return nil, kv.ErrNotFound
	}
	return []byte(v), nil
}

func (e *stubEngine) Delete(key []byte) error {
	e.entered.Add(1)
	e.waitGate()
	e.mu.Lock()
	delete(e.data, string(key))
	e.mu.Unlock()
	return nil
}

func (e *stubEngine) Write(b *kv.Batch) error {
	e.entered.Add(1)
	e.waitGate()
	e.batchWrites.Add(1)
	e.batchOps.Add(int64(b.Len()))
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, op := range b.Ops() {
		if op.Kind == kv.OpDelete {
			delete(e.data, string(op.Key))
		} else {
			e.data[string(op.Key)] = string(op.Value)
		}
	}
	return nil
}

func (e *stubEngine) Caps() kv.Caps { return kv.Caps{BatchWrite: true, MultiGet: true} }

func (e *stubEngine) MultiGet(keys [][]byte) ([][]byte, error) {
	e.multiGets.Add(1)
	e.multiKeys.Add(int64(len(keys)))
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([][]byte, len(keys))
	for i, k := range keys {
		if v, ok := e.data[string(k)]; ok {
			out[i] = []byte(v)
		}
	}
	return out, nil
}

func (e *stubEngine) NewIterator() (kv.Iterator, error) {
	e.mu.Lock()
	keys := make([]string, 0, len(e.data))
	for k := range e.data {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	vals := make([]string, len(keys))
	for i, k := range keys {
		vals[i] = e.data[k]
	}
	e.mu.Unlock()
	return &stubIter{keys: keys, vals: vals, pos: -1}, nil
}

func (e *stubEngine) Flush() error { return nil }
func (e *stubEngine) Close() error { return nil }

type stubIter struct {
	keys []string
	vals []string
	pos  int
}

func (it *stubIter) Valid() bool  { return it.pos >= 0 && it.pos < len(it.keys) }
func (it *stubIter) SeekToFirst() { it.pos = 0 }
func (it *stubIter) Seek(target []byte) {
	it.pos = sort.SearchStrings(it.keys, string(target))
}
func (it *stubIter) Next()         { it.pos++ }
func (it *stubIter) Key() []byte   { return []byte(it.keys[it.pos]) }
func (it *stubIter) Value() []byte { return []byte(it.vals[it.pos]) }
func (it *stubIter) Error() error  { return nil }
func (it *stubIter) Close() error  { return nil }

// testServer wires a Server over stub engines on an ephemeral port.
type testServer struct {
	srv      *Server
	store    *core.Store
	engines  []*stubEngine
	addr     string        // listen address, valid before Serve runs
	done     chan struct{} // closed when Serve returns
	serveErr error         // valid after done is closed
}

func startTestServer(t *testing.T, workers int, gate chan struct{}, tweak func(*core.Options), cfg Config) *testServer {
	t.Helper()
	return startTestServerOn(t, workers, gate, tweak, cfg, nil)
}

// startTestServerOn is startTestServer with the listener passed through
// wrap (when non-nil), so a test can interpose on accepted connections.
func startTestServerOn(t *testing.T, workers int, gate chan struct{}, tweak func(*core.Options), cfg Config, wrap func(net.Listener) net.Listener) *testServer {
	t.Helper()
	engines := make([]*stubEngine, workers)
	copts := core.DefaultOptions(func(id int, _ func(uint64) bool) (kv.Engine, error) {
		engines[id] = newStubEngine(gate)
		return engines[id], nil
	})
	copts.Workers = workers
	copts.TxnFS = vfs.NewMem()
	copts.TxnDir = "txn"
	if tweak != nil {
		tweak(&copts)
	}
	store, err := core.Open(copts)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Store = store
	srv := New(cfg)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if wrap != nil {
		lis = wrap(lis)
	}
	ts := &testServer{srv: srv, store: store, engines: engines, addr: lis.Addr().String(), done: make(chan struct{})}
	go func() {
		ts.serveErr = srv.Serve(lis)
		close(ts.done)
	}()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		select {
		case <-ts.done:
		case <-time.After(5 * time.Second):
			t.Error("Serve did not return after Shutdown")
		}
	})
	return ts
}

// client is a minimal RESP test client.
type client struct {
	nc net.Conn
	rd *Reader
	wr *Writer
}

func dialTest(t *testing.T, ts *testServer) *client {
	t.Helper()
	nc, err := net.Dial("tcp", ts.addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	return &client{nc: nc, rd: NewReader(nc), wr: NewWriter(nc)}
}

// pipeline writes all commands in one flush, then reads one reply each.
func (c *client) pipeline(t *testing.T, cmds ...[]string) []Reply {
	t.Helper()
	var buf bytes.Buffer
	bw := NewWriter(&buf)
	for _, cmd := range cmds {
		args := make([][]byte, len(cmd))
		for i, a := range cmd {
			args[i] = []byte(a)
		}
		bw.WriteCommand(args...)
	}
	bw.Flush()
	// One Write syscall so the server sees the whole pipeline at once.
	if _, err := c.nc.Write(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	replies := make([]Reply, 0, len(cmds))
	for range cmds {
		rep, err := c.rd.ReadReply()
		if err != nil {
			t.Fatalf("reading reply %d/%d: %v", len(replies)+1, len(cmds), err)
		}
		replies = append(replies, rep)
	}
	return replies
}

func (c *client) do(t *testing.T, args ...string) Reply {
	t.Helper()
	return c.pipeline(t, args)[0]
}

// send writes one command without waiting for its reply — used to park
// requests behind a gated engine.
func (c *client) send(t *testing.T, args ...string) {
	t.Helper()
	bs := make([][]byte, len(args))
	for i, a := range args {
		bs[i] = []byte(a)
	}
	c.wr.WriteCommand(bs...)
	if err := c.wr.Flush(); err != nil {
		t.Fatal(err)
	}
}

// tryRead reads one reply bounded by a deadline; ok is false on timeout.
func (c *client) tryRead(t *testing.T, d time.Duration) (Reply, bool) {
	t.Helper()
	c.nc.SetReadDeadline(time.Now().Add(d))
	defer c.nc.SetReadDeadline(time.Time{})
	rep, err := c.rd.ReadReply()
	if err != nil {
		if ne, isNet := err.(net.Error); isNet && ne.Timeout() {
			return Reply{}, false
		}
		t.Fatal(err)
	}
	return rep, true
}

func sumBatchStats(store *core.Store) (batchWriteOps, multiGetOps int64) {
	for _, ws := range store.Stats() {
		batchWriteOps += ws.BatchWriteOps
		multiGetOps += ws.MultiGetOps
	}
	return
}

// txnRecords counts the records of the store's transaction log, and the
// commits among them.
func txnRecords(t *testing.T, fs vfs.FS) (records, commits int) {
	t.Helper()
	recs, err := wal.ReadAll(fs, "txn/TXNLOG")
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if r.Payload[0] == 2 { // the commit record's type byte
			commits++
		}
	}
	return len(recs), commits
}

// sixteenSets is a window of 16 SETs whose keys span the shards of a
// 4-worker store.
func sixteenSets() [][]string {
	var cmds [][]string
	for i := 0; i < 16; i++ {
		cmds = append(cmds, []string{"SET", fmt.Sprintf("key-%02d", i), fmt.Sprintf("val-%02d", i)})
	}
	return cmds
}

// TestPipelinedSetCoalescing: 16 pipelined SETs over four shards reach the
// engines as at most one WriteBatch per shard, and as independent writes —
// the transaction log does not grow. An MSET of the same keys is one
// command, so it still commits as one transaction.
func TestPipelinedSetCoalescing(t *testing.T) {
	var txnFS vfs.FS
	ts := startTestServer(t, 4, nil, func(o *core.Options) { txnFS = o.TxnFS }, Config{})
	c := dialTest(t, ts)

	cmds := sixteenSets()
	records, _ := txnRecords(t, txnFS)
	for i, rep := range c.pipeline(t, cmds...) {
		if rep.Kind != '+' || string(rep.Str) != "OK" {
			t.Fatalf("SET %d: %v", i, rep)
		}
	}
	if n, _ := txnRecords(t, txnFS); n != records {
		t.Fatalf("16 pipelined SETs appended %d TXNLOG records, want 0", n-records)
	}
	// The 16 SETs must have reached the engines as WriteBatch calls, not
	// 16 single puts: every op travels inside a multi-op batch.
	var engineBatchOps, engineBatchWrites int64
	shards := 0
	for _, e := range ts.engines {
		engineBatchOps += e.batchOps.Load()
		engineBatchWrites += e.batchWrites.Load()
		if e.batchOps.Load() > 0 {
			shards++
		}
	}
	if shards < 2 {
		t.Fatalf("the 16 keys landed on %d shard, want them spread", shards)
	}
	if engineBatchOps != 16 {
		t.Fatalf("engine batch ops = %d, want 16", engineBatchOps)
	}
	if engineBatchWrites > 4 {
		t.Fatalf("engine WriteBatch calls = %d, want <= one per shard", engineBatchWrites)
	}
	// Every shard holding >= 2 of the 16 keys must report its ops as
	// batch-written; with 4 shards at least 13 ops land in such shards.
	if bw, _ := sumBatchStats(ts.store); bw < 13 {
		t.Fatalf("WorkerStats.BatchWriteOps = %d, want >= 13", bw)
	}
	// And the data is actually there.
	if rep := c.do(t, "GET", "key-07"); string(rep.Str) != "val-07" {
		t.Fatalf("GET after coalesced SET: %v", rep)
	}

	mset := []string{"MSET"}
	for _, cmd := range cmds {
		mset = append(mset, cmd[1], "m"+cmd[2])
	}
	records, commits := txnRecords(t, txnFS)
	if rep := c.do(t, mset...); rep.Kind != '+' {
		t.Fatalf("MSET across shards: %v", rep)
	}
	if n, k := txnRecords(t, txnFS); n != records+2 || k != commits+1 {
		t.Fatalf("an MSET across shards appended %d TXNLOG records, %d commits; want a begin and a commit", n-records, k-commits)
	}
}

// TestPipelinedSetsNeedNoTxnFS: a store without a transaction log still
// takes a pipeline of SETs that spans its shards, since the SETs are
// independent writes.
func TestPipelinedSetsNeedNoTxnFS(t *testing.T) {
	ts := startTestServer(t, 4, nil, func(o *core.Options) { o.TxnFS = nil }, Config{})
	c := dialTest(t, ts)
	cmds := sixteenSets()
	for i, rep := range c.pipeline(t, cmds...) {
		if rep.Kind != '+' || string(rep.Str) != "OK" {
			t.Fatalf("SET %d without a TxnFS: %v, want +OK", i, rep)
		}
	}
	for _, cmd := range cmds {
		if rep := c.do(t, "GET", cmd[1]); string(rep.Str) != cmd[2] {
			t.Fatalf("GET %s = %v, want %s", cmd[1], rep, cmd[2])
		}
	}
}

// degradedStub is a stub engine stuck in read-only degraded mode.
type degradedStub struct{ *stubEngine }

func (degradedStub) Health() kv.Health { return kv.Health{State: kv.StateReadOnly} }
func (degradedStub) Resume() error     { return nil }

// TestPipelinedSetsFailPerShard: with shard 0 degraded, a pipeline of SETs
// across all four shards answers -READONLY for shard 0's SETs only; the
// others commit and read back.
func TestPipelinedSetsFailPerShard(t *testing.T) {
	ts := startTestServer(t, 4, nil, func(o *core.Options) {
		factory := o.EngineFactory
		o.EngineFactory = func(id int, filter func(uint64) bool) (kv.Engine, error) {
			e, err := factory(id, filter)
			if id == 0 {
				return degradedStub{e.(*stubEngine)}, err
			}
			return e, err
		}
	}, Config{})
	c := dialTest(t, ts)
	cmds := sixteenSets()
	part := keyspace.NewHash(4)
	var failed int
	for i, rep := range c.pipeline(t, cmds...) {
		onDegraded := part.Pick([]byte(cmds[i][1])) == 0
		switch {
		case onDegraded && (!rep.IsError() || !strings.HasPrefix(string(rep.Str), "READONLY")):
			t.Errorf("SET %s on the degraded shard: %v, want -READONLY", cmds[i][1], rep)
		case !onDegraded && (rep.Kind != '+' || string(rep.Str) != "OK"):
			t.Errorf("SET %s on a healthy shard: %v, want +OK", cmds[i][1], rep)
		}
		if onDegraded {
			failed++
		}
	}
	if failed == 0 || failed == len(cmds) {
		t.Fatalf("%d of the %d keys are on the degraded shard: the window does not mix", failed, len(cmds))
	}
	for _, cmd := range cmds {
		rep := c.do(t, "GET", cmd[1])
		if part.Pick([]byte(cmd[1])) == 0 {
			if !rep.Nil {
				t.Errorf("GET %s on the degraded shard = %v, want nil", cmd[1], rep)
			}
		} else if string(rep.Str) != cmd[2] {
			t.Errorf("GET %s = %v, want %s", cmd[1], rep, cmd[2])
		}
	}
}

// TestMixedWriteWindowKeepsOrder: single-key writes to one key, an MSET
// across shards, a multi-key DEL and a last SET in one window on four
// workers leave every key at the value its last command gave it.
func TestMixedWriteWindowKeepsOrder(t *testing.T) {
	ts := startTestServer(t, 4, nil, nil, Config{})
	c := dialTest(t, ts)
	reps := c.pipeline(t,
		[]string{"SET", "k", "1"},
		[]string{"SET", "k", "2"},
		[]string{"DEL", "k"},
		[]string{"SET", "k", "3"},
		[]string{"SET", "a", "0"},
		[]string{"MSET", "k", "4", "a", "1", "b", "1", "c", "1", "d", "1", "e", "1"},
		[]string{"DEL", "a", "b", "e"},
		[]string{"SET", "e", "2"},
		[]string{"DEL", "d"},
		[]string{"SET", "c", "2"},
	)
	got := make([]string, len(reps))
	for i, r := range reps {
		got[i] = string(r.Kind) + r.String()
	}
	want := "+OK +OK :1 +OK +OK +OK :3 +OK :1 +OK"
	if strings.Join(got, " ") != want {
		t.Fatalf("replies %q, want %s", got, want)
	}
	for k, v := range map[string]string{"k": "4", "a": "", "b": "", "c": "2", "d": "", "e": "2"} {
		rep := c.do(t, "GET", k)
		if v == "" && !rep.Nil || v != "" && string(rep.Str) != v {
			t.Errorf("GET %s = %v, want %q", k, rep, v)
		}
	}
}

// TestPipelinedGetCoalescing wedges the single worker behind a gated
// write so a pipeline of GETs piles up contiguously in its queue; when
// the gate opens, OBM must deliver them to the engine as one multiget.
func TestPipelinedGetCoalescing(t *testing.T) {
	gate := make(chan struct{})
	released := false
	defer func() {
		if !released {
			close(gate)
		}
	}()
	ts := startTestServer(t, 1, gate, nil, Config{})
	// Preload engine-side data directly: the gate only blocks writes.
	e := ts.engines[0]
	e.mu.Lock()
	for i := 0; i < 8; i++ {
		e.data[fmt.Sprintf("g%02d", i)] = fmt.Sprintf("v%02d", i)
	}
	e.mu.Unlock()

	// Wedge the worker inside a write...
	wedge := dialTest(t, ts)
	wedge.send(t, "SET", "wedge", "1")
	waitFor(t, func() bool { return e.entered.Load() >= 1 })

	// ...then pipeline 9 GETs that queue up behind it.
	c := dialTest(t, ts)
	var gets [][]string
	for i := 0; i < 8; i++ {
		gets = append(gets, []string{"GET", fmt.Sprintf("g%02d", i)})
	}
	gets = append(gets, []string{"GET", "missing"})
	var buf bytes.Buffer
	bw := NewWriter(&buf)
	for _, g := range gets {
		bw.WriteCommand([]byte(g[0]), []byte(g[1]))
	}
	bw.Flush()
	if _, err := c.nc.Write(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	// Wait until all 9 reads are parked in the worker queue, then open
	// the gate: the worker pops the write, then the whole read run.
	waitFor(t, func() bool {
		for _, ws := range ts.store.Stats() {
			if ws.QueueHighWater >= 9 {
				return true
			}
		}
		return false
	})
	close(gate)
	released = true

	for i := 0; i < 8; i++ {
		rep, err := c.rd.ReadReply()
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("v%02d", i); string(rep.Str) != want {
			t.Fatalf("GET %d = %v, want %s", i, rep, want)
		}
	}
	rep, err := c.rd.ReadReply()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Nil {
		t.Fatalf("missing key: got %v, want nil bulk", rep)
	}
	if _, mg := sumBatchStats(ts.store); mg != 9 {
		t.Fatalf("WorkerStats.MultiGetOps = %d, want 9", mg)
	}
	if e.multiGets.Load() != 1 || e.multiKeys.Load() != 9 {
		t.Fatalf("engine multiget calls=%d keys=%d, want 1 call with 9 keys",
			e.multiGets.Load(), e.multiKeys.Load())
	}
}

// TestMixedWindowMergesByType sends one window of writes (SET, MSET, DEL),
// reads (GET, MGET, GET), then a write (DEL). The reads are one run and
// reach the store as one multi-key read of all four keys. A multi-key MSET
// or DEL is a run of its own, so the writes are four runs, one engine
// WriteBatch each. Every command gets its own reply, in order.
func TestMixedWindowMergesByType(t *testing.T) {
	ts := startTestServer(t, 1, nil, nil, Config{})
	c := dialTest(t, ts)
	reps := c.pipeline(t,
		[]string{"SET", "a", "1"},
		[]string{"MSET", "b", "2", "c", "3"},
		[]string{"DEL", "c", "x"},
		[]string{"GET", "a"},
		[]string{"MGET", "b", "c"},
		[]string{"GET", "b"},
		[]string{"DEL", "a"},
	)
	// Each reply as its RESP type byte and payload.
	var render func(Reply) string
	render = func(r Reply) string {
		if r.Kind == '*' {
			elems := make([]string, len(r.Elems))
			for i, e := range r.Elems {
				elems[i] = render(e)
			}
			return "*" + strings.Join(elems, ",")
		}
		return string(r.Kind) + r.String()
	}
	got := make([]string, len(reps))
	for i, r := range reps {
		got[i] = render(r)
	}
	want := []string{"+OK", "+OK", ":2", "$1", "*$2,$(nil)", "$2", ":1"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("replies %q, want %q", got, want)
	}
	if n := ts.engines[0].batchWrites.Load(); n != 4 {
		t.Errorf("the four write runs made %d engine writes, want 4", n)
	}
	if st := ts.srv.snapshot(); st.CoalescedGets != 4 || st.CoalescedSets != 4 {
		t.Errorf("coalesced gets %d, sets %d; want the read run's 4 keys in one call and the MSET's and the two-key DEL's 4 ops",
			st.CoalescedGets, st.CoalescedSets)
	}
	if rep := render(c.do(t, "MGET", "a", "b")); rep != "*$(nil),$2" {
		t.Fatalf("after the window MGET a b = %s", rep)
	}
}

// TestCmdstatCountsCommands: a run records its latency once per command it
// answered, so 16 pipelined GETs are 16 calls of GET.
func TestCmdstatCountsCommands(t *testing.T) {
	ts := startTestServer(t, 2, nil, nil, Config{})
	c := dialTest(t, ts)
	var gets [][]string
	for i := 0; i < 16; i++ {
		gets = append(gets, []string{"GET", fmt.Sprintf("k%d", i)})
	}
	before := ts.srv.stats.lat["GET"].Count()
	c.pipeline(t, gets...)
	if n := ts.srv.stats.lat["GET"].Count() - before; n != 16 {
		t.Fatalf("16 pipelined GETs raised cmdstat_get:calls by %d, want 16", n)
	}
}

func TestLoadshedReplyUnderAdmitReject(t *testing.T) {
	gate := make(chan struct{})
	released := false
	defer func() {
		if !released {
			close(gate)
		}
	}()
	ts := startTestServer(t, 1, gate, func(o *core.Options) {
		o.Admission = core.AdmitReject
		o.QueueDepth = 1
	}, Config{})

	// Conn A wedges the worker inside the engine; the queue is empty
	// again once its request is popped.
	a := dialTest(t, ts)
	a.send(t, "SET", "a", "1")
	waitFor(t, func() bool { return ts.engines[0].entered.Load() >= 1 })

	// B and C race for the single queue slot: one parks, the other must
	// bounce with -LOADSHED (the worker is wedged, so the slot cannot
	// free in between).
	b := dialTest(t, ts)
	cc := dialTest(t, ts)
	b.send(t, "SET", "b", "2")
	cc.send(t, "SET", "c", "3")
	waitFor(t, func() bool {
		var rejected int64
		for _, ws := range ts.store.Stats() {
			rejected += ws.Rejected
		}
		return rejected >= 1
	})
	rep, ok := b.tryRead(t, 200*time.Millisecond)
	if !ok {
		rep, ok = cc.tryRead(t, 2*time.Second)
		if !ok {
			t.Fatal("neither B nor C received the rejection reply")
		}
	}
	if !rep.IsError() || !strings.HasPrefix(string(rep.Str), "LOADSHED") {
		t.Fatalf("overloaded SET: got %v, want -LOADSHED", rep)
	}
	if ts.srv.stats.loadshed.Load() == 0 {
		t.Fatal("loadshed counter not incremented")
	}
	close(gate)
	released = true
}

func TestCommandTimeoutReply(t *testing.T) {
	gate := make(chan struct{})
	defer close(gate)
	ts := startTestServer(t, 1, gate, nil, Config{CommandTimeout: 30 * time.Millisecond})
	c := dialTest(t, ts)

	rep := c.do(t, "SET", "k", "v")
	if !rep.IsError() || !strings.HasPrefix(string(rep.Str), "TIMEOUT") {
		t.Fatalf("deadline expiry: got %v, want -TIMEOUT", rep)
	}
	if ts.srv.stats.timeouts.Load() == 0 {
		t.Fatal("timeout counter not incremented")
	}
}

// TestGracefulDrainMidPipeline proves the shutdown contract: a pipeline
// being processed when Shutdown starts gets every reply written and
// flushed before its connection closes — zero dropped in-flight replies.
func TestGracefulDrainMidPipeline(t *testing.T) {
	gate := make(chan struct{})
	ts := startTestServer(t, 2, gate, nil, Config{})
	c := dialTest(t, ts)

	// 6 pipelined SETs coalesce into one WriteCtx wedged on the gate.
	var buf bytes.Buffer
	bw := NewWriter(&buf)
	for i := 0; i < 6; i++ {
		bw.WriteCommand([]byte("SET"), []byte(fmt.Sprintf("d%d", i)), []byte("v"))
	}
	bw.Flush()
	if _, err := c.nc.Write(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		var n int64
		for _, e := range ts.engines {
			n += e.entered.Load()
		}
		return n >= 1
	})

	shutdownErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownErr <- ts.srv.Shutdown(ctx)
	}()
	time.Sleep(20 * time.Millisecond) // let the drain begin mid-pipeline
	close(gate)

	for i := 0; i < 6; i++ {
		rep, err := c.rd.ReadReply()
		if err != nil {
			t.Fatalf("reply %d lost during drain: %v", i, err)
		}
		if rep.Kind != '+' || string(rep.Str) != "OK" {
			t.Fatalf("reply %d = %v, want +OK", i, rep)
		}
	}
	if err := <-shutdownErr; err != nil {
		t.Fatalf("graceful shutdown returned %v", err)
	}
	select {
	case <-ts.done:
		if ts.serveErr != nil {
			t.Fatalf("Serve returned %v after drain", ts.serveErr)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after drain")
	}
	// Connection must now be closed.
	c.nc.SetReadDeadline(time.Now().Add(time.Second))
	if _, err := c.rd.ReadReply(); err == nil {
		t.Fatal("connection still open after drain")
	}
	// New connections must be refused.
	if nc, err := net.Dial("tcp", ts.addr); err == nil {
		nc.Close()
		t.Fatal("listener still accepting after drain")
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition not reached within 5s")
}

// An empty value is a value: over real engines (whose copy of an empty value
// is a nil slice) it reads back as an empty bulk string, not the null bulk
// that means key-not-found — on the single-command path, through a coalesced
// pipelined run and in an MGET alike.
func TestEmptyValueRoundTrip(t *testing.T) {
	ts := startCheckpointServer(t, vfs.NewMem())
	c := dialTest(t, ts)
	if r := c.do(t, "SET", "k", ""); r.IsError() {
		t.Fatalf("SET: %s", r)
	}
	if r := c.do(t, "GET", "k"); r.Nil || len(r.Str) != 0 {
		t.Fatalf("GET of an empty value: nil=%v str=%q", r.Nil, r.Str)
	}
	for _, r := range c.pipeline(t, []string{"SET", "a", ""}, []string{"SET", "b", "x"}) {
		if r.IsError() {
			t.Fatalf("pipelined SET: %s", r)
		}
	}
	reps := c.pipeline(t, []string{"GET", "a"}, []string{"GET", "b"}, []string{"GET", "k"}, []string{"GET", "nope"})
	if reps[0].Nil || len(reps[0].Str) != 0 || string(reps[1].Str) != "x" || reps[2].Nil || !reps[3].Nil {
		t.Fatalf("pipelined GETs: a nil=%v %q, b %q, k nil=%v, nope nil=%v",
			reps[0].Nil, reps[0].Str, reps[1].Str, reps[2].Nil, reps[3].Nil)
	}
	if r := c.do(t, "MGET", "a", "nope", "k"); len(r.Elems) != 3 || r.Elems[0].Nil || !r.Elems[1].Nil || r.Elems[2].Nil {
		t.Fatalf("MGET a nope k = %s", r)
	}
}
