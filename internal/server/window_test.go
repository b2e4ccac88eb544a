package server

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"p2kvs/internal/core"
	"p2kvs/internal/keyspace"
	"p2kvs/internal/kv"
	"p2kvs/internal/lsm"
	"p2kvs/internal/raceflag"
	"p2kvs/internal/vfs"
)

// windowValue is the value every key of lsmStore holds.
var windowValue = bytes.Repeat([]byte{'v'}, 128)

func windowKey(i int) string { return fmt.Sprintf("key%08d", i) }

// lsmStore opens a store of workers lsm engines on an in-memory FS, without
// a hot cache, holding keys windowKey(0..keys-1), each windowValue.
func lsmStore(tb testing.TB, workers, keys int) *core.Store {
	tb.Helper()
	fs := vfs.NewMem()
	opts := core.DefaultOptions(func(id int, filter func(uint64) bool) (kv.Engine, error) {
		return lsm.OpenWith(fmt.Sprintf("inst-%02d", id), lsm.RocksDBOptions(fs), lsm.OpenOptions{RecoverFilter: filter})
	})
	opts.Workers = workers
	opts.TxnFS, opts.TxnDir = fs, "txn"
	s, err := core.Open(opts)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { s.Close() })
	for i := 0; i < keys; i++ {
		if err := s.Put([]byte(windowKey(i)), windowValue); err != nil {
			tb.Fatal(err)
		}
	}
	return s
}

// pipeConn serves one in-memory connection of srv on its own goroutine and
// returns the client's end; closing it ends the session.
func pipeConn(tb testing.TB, srv *Server) net.Conn {
	client, server := net.Pipe()
	go newConn(srv, server).serve()
	tb.Cleanup(func() { client.Close() })
	return client
}

// pipelineWindow encodes cmds as one pipeline and returns it with the
// replies lsmStore gives it: a SET's or MSET's +OK, a DEL's key count, a
// GET's windowValue and an MGET's array of them.
func pipelineWindow(cmds ...[]string) (req, replies []byte) {
	var buf, want bytes.Buffer
	w, rw := NewWriter(&buf), NewWriter(&want)
	for _, cmd := range cmds {
		args := make([][]byte, len(cmd))
		for i, a := range cmd {
			args[i] = []byte(a)
		}
		w.WriteCommand(args...)
		switch strings.ToUpper(cmd[0]) {
		case "SET", "MSET":
			rw.WriteSimple("OK")
		case "DEL":
			rw.WriteInt(int64(len(cmd) - 1))
		case "MGET":
			rw.WriteArrayHeader(len(cmd) - 1)
			for range cmd[1:] {
				rw.WriteBulk(windowValue)
			}
		default:
			rw.WriteBulk(windowValue)
		}
	}
	w.Flush()
	rw.Flush()
	return buf.Bytes(), want.Bytes()
}

// roundTrip sends one window and reads its replies into reply.
func roundTrip(nc net.Conn, req, reply []byte) error {
	if _, err := nc.Write(req); err != nil {
		return err
	}
	_, err := io.ReadFull(nc, reply)
	return err
}

// TestPipelineWindowAllocs pins what a pipelined command costs once its
// connection's window arena is warm: a GET allocates its value, a SET, MSET
// or DEL nothing. Commands, arguments, the read run's keys, the write run's
// batch, the multiget's legs and fan-in and the write's request are all
// reused. A read run also allocates its two result slices, the store's and
// the engine's: two per run, not per GET.
func TestPipelineWindowAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation pins are not meaningful under the race detector: sync.Pool drops Puts there")
	}
	srv := New(Config{Store: lsmStore(t, 1, 1000)})
	nc := pipeConn(t, srv)
	var coalesced, interleaved, multiKey [][]string
	for i := 0; i < 16; i++ {
		coalesced = append(coalesced, []string{"GET", windowKey(i * 61)})
		interleaved = append(interleaved, []string{"get", windowKey(i * 61)}, []string{"Set", windowKey(i*61 + 7), string(windowValue)})
	}
	for i := 0; i < 16; i++ {
		coalesced = append(coalesced, []string{"SET", windowKey(i*61 + 7), string(windowValue)})
	}
	// Keys past the store's, so that no other case reads what these delete.
	for i := 0; i < 8; i++ {
		k1, k2 := windowKey(2000+2*i), windowKey(2001+2*i)
		multiKey = append(multiKey, []string{"MSET", k1, string(windowValue), k2, string(windowValue)}, []string{"del", k1, k2})
	}
	for _, c := range []struct {
		name string
		cmds [][]string
		max  float64
	}{
		{"16 GETs then 16 SETs", coalesced, 16 + 2},
		{"GET and SET alternating", interleaved, 16},
		{"MSET and DEL alternating", multiKey, 1},
	} {
		req, want := pipelineWindow(c.cmds...)
		reply := make([]byte, len(want))
		if err := roundTrip(nc, req, reply); err != nil { // warms the arena and the pools
			t.Fatal(err)
		}
		got := testing.AllocsPerRun(100, func() {
			if err := roundTrip(nc, req, reply); err != nil {
				t.Fatal(err)
			}
		})
		if !bytes.Equal(reply, want) {
			t.Fatalf("%s: replies %q, want %q", c.name, reply, want)
		}
		t.Logf("%s: %.0f allocs per window", c.name, got)
		if got > c.max {
			t.Errorf("%s: %.0f allocs per window, want <= %.0f", c.name, got, c.max)
		}
	}
	if st := srv.snapshot(); st.CoalescedGets == 0 || st.CoalescedSets == 0 {
		t.Fatalf("coalesced gets %d, sets %d: the runs were not coalesced", st.CoalescedGets, st.CoalescedSets)
	}
}

// TestTimedOutWindowKeepsItsBytes is the arena's reuse rule under a
// deadline. A coalesced SET run times out while its batch is inside a
// wedged engine, which will read the batch's keys and values only once
// released; meanwhile the connection reads a window of other SETs, laid out
// differently. Whatever the released engine applies for the timed-out run
// must be that run's own pairs, never bytes of the later window: a window
// with a failed store call leaves its arena to the orphaned request and the
// next one starts on a fresh one. On one worker the run is one request; on
// four it is one leg per shard it touches.
func TestTimedOutWindowKeepsItsBytes(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) { timedOutWindowKeepsItsBytes(t, workers) })
	}
}

func timedOutWindowKeepsItsBytes(t *testing.T, workers int) {
	gate := make(chan struct{})
	release := sync.OnceFunc(func() { close(gate) })
	defer release()
	ts := startTestServer(t, workers, gate, nil, Config{CommandTimeout: 200 * time.Millisecond})
	c := dialTest(t, ts)
	part := keyspace.NewHash(workers)
	shards := func(cmds [][]string) int64 {
		touched := map[int]bool{}
		for _, cmd := range cmds {
			touched[part.Pick([]byte(cmd[1]))] = true
		}
		return int64(len(touched))
	}
	want := map[string]string{}
	var first, second [][]string
	for i := 0; i < 4; i++ {
		k, v := fmt.Sprintf("old-key-%d", i), fmt.Sprintf("old-value-%d", i)
		first, want[k] = append(first, []string{"SET", k, v}), v
	}
	for i := 0; i < 2; i++ {
		k, v := fmt.Sprintf("the-next-window-key-%d", i), fmt.Sprintf("a-longer-value-of-the-next-window-%d", i)
		second, want[k] = append(second, []string{"SET", k, v}), v
	}

	if workers > 1 && shards(first) < 2 {
		t.Fatal("the timed-out run touches one shard: it takes no legs")
	}
	for _, rep := range c.pipeline(t, first...) {
		if !rep.IsError() || !strings.HasPrefix(string(rep.Str), "TIMEOUT") {
			t.Fatalf("the wedged SET run replied %v, want -TIMEOUT", rep)
		}
	}
	var entered, batchWrites int64
	count := func() {
		entered, batchWrites = 0, 0
		for _, e := range ts.engines {
			entered += e.entered.Load()
			batchWrites += e.batchWrites.Load()
		}
	}
	if count(); entered != shards(first) {
		t.Fatalf("%d writes entered the engines, want the timed-out run's %d", entered, shards(first))
	}
	req, _ := pipelineWindow(second...)
	if _, err := c.nc.Write(req); err != nil { // one write: one window
		t.Fatal(err)
	}
	// The second window is parsed before its commands are counted; its run
	// then queues behind the wedged one.
	waitFor(t, func() bool { return ts.srv.stats.commands.Load() == int64(len(first)+len(second)) })
	release()
	for range second {
		if rep, err := c.rd.ReadReply(); err != nil || rep.Kind != '+' {
			t.Fatalf("the second window replied %v, %v; want +OK", rep, err)
		}
	}
	waitFor(t, func() bool { count(); return batchWrites == shards(first)+shards(second) })

	for _, e := range ts.engines {
		e.mu.Lock()
		for k, v := range e.data {
			if want[k] != v {
				t.Errorf("the engine holds %q = %q, a pair neither window wrote", k, v)
			}
		}
		e.mu.Unlock()
	}
	for _, cmd := range second {
		e := ts.engines[part.Pick([]byte(cmd[1]))]
		e.mu.Lock()
		if e.data[cmd[1]] != cmd[2] {
			t.Errorf("acknowledged %s = %q, the engine holds %q", cmd[1], cmd[2], e.data[cmd[1]])
		}
		e.mu.Unlock()
	}
}

// BenchmarkServerPipeline runs the server's wire path in process: two
// connections, each sending windows of 16 pipelined commands over keys in a
// four-worker lsm store, and reading the replies. The getset arm is 90 %
// GET and 10 % SET; the mixed arm puts MGET, MSET and DEL beside them, so
// its read runs mix GET and MGET, and each two-key MSET or DEL (a
// transaction across shards) runs alone. One op is one window; ns/cmd is
// per command.
func BenchmarkServerPipeline(b *testing.B) {
	const keys, conns, depth = 20000, 2, 16
	srv := New(Config{Store: lsmStore(b, 4, keys)})
	key := func(rng *rand.Rand) string { return windowKey(rng.Intn(keys)) }
	// spare names a key past the preloaded ones, which no command reads:
	// MSET and DEL touch only these, so every read's reply, and with it
	// every window's, keeps the length pipelineWindow expects.
	spare := func(rng *rand.Rand) string { return windowKey(keys + rng.Intn(keys)) }
	v := string(windowValue)
	for _, arm := range []struct {
		name string
		cmd  func(*rand.Rand) []string
	}{
		{"getset", func(rng *rand.Rand) []string {
			if rng.Intn(10) == 0 {
				return []string{"SET", key(rng), v}
			}
			return []string{"GET", key(rng)}
		}},
		{"mixed", func(rng *rand.Rand) []string {
			switch n := rng.Intn(20); {
			case n < 11:
				return []string{"GET", key(rng)}
			case n < 15:
				return []string{"MGET", key(rng), key(rng)}
			case n < 17:
				return []string{"SET", key(rng), v}
			case n < 19:
				return []string{"MSET", spare(rng), v, spare(rng), v}
			default:
				return []string{"DEL", spare(rng), spare(rng)}
			}
		}},
	} {
		b.Run(arm.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			type pipelined struct {
				req   []byte
				reply []byte
			}
			windows := make([]pipelined, 64)
			for i := range windows {
				cmds := make([][]string, depth)
				for j := range cmds {
					cmds[j] = arm.cmd(rng)
				}
				req, want := pipelineWindow(cmds...)
				windows[i] = pipelined{req, make([]byte, len(want))}
			}
			var ncs [conns]net.Conn
			for i := range ncs {
				ncs[i] = pipeConn(b, srv)
			}
			b.ReportAllocs()
			b.ResetTimer()
			var wg sync.WaitGroup
			for i, nc := range ncs {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for n := i; n < b.N; n += conns {
						w := &windows[n%len(windows)]
						if err := roundTrip(nc, w.req, w.reply); err != nil {
							b.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*depth), "ns/cmd")
		})
	}
}
