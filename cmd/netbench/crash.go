package main

// Crash-recovery torture (-crash): spawn a real p2kvs-server process,
// drive pipelined SET load while tracking every key's acknowledged writes,
// SIGKILL the server at a random moment (including mid-BGSAVE), restart
// it, and verify over the wire that the durability contract held:
//
//   - under -crash_mode commit (SyncOnCommit), every acknowledged write
//     is present after the kill: for each key the stored sequence number
//     is in [highest acked, highest attempted];
//   - under interval / never, acked writes may be lost but the store must
//     restart cleanly and every surviving value must be well-formed (no
//     torn or cross-key bytes served).
//
// With -crash_replica the harness runs a primary/replica pair under the
// same regime. Load (pipelined SETs plus cross-partition MSETs and
// BGSAVEs) runs against the primary while the replica tails the GSN
// stream; each cycle a victim — replica, primary, or both — is killed
// mid-stream and restarted, and the harness additionally verifies that
//
//   - the replica reconnects, resyncs and converges: the two SCAN/MGET
//     dumps are byte-identical once replica_lag_gsn reaches 0;
//   - a replica killed while the primary survives resumes with a
//     partial resync (its fresh-process INFO counters show
//     replica_partial_syncs >= 1);
//   - after the cycles, a replica held down until the primary's backlog
//     provably trimmed past every record it had seen falls back to a
//     full sync and still converges to an identical dump.
//
// Any violation exits non-zero.

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"os/exec"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"p2kvs/internal/cluster"
	"p2kvs/internal/loadgen"
)

type crashConfig struct {
	serverBin, serverArgs, dir, mode string
	cycles, conns, pipeline          int
	seed                             int64
	replica                          bool
}

// walSyncFor maps a -crash_mode to the server's -wal_sync value.
var walSyncFor = map[string]string{"commit": "commit", "interval": "25ms", "never": "never"}

const (
	crashKeysPerConn = 200     // key range owned by each load connection
	crashReplBacklog = 4 << 20 // primary's replication backlog retention
	// Key-index ranges beside the per-connection partitions.
	crashMsetBase     = 1 << 32
	crashOverflowBase = 2 << 32
)

// keyState tracks one key's write progress. Keys are partitioned by
// connection, so each is touched by exactly one goroutine during load;
// the driver reads the state only after the load goroutines stop.
type keyState struct {
	attempted int64 // highest seq ever sent in a SET
	acked     int64 // highest seq the server acked
}

type harness struct {
	crashConfig
	rng    *rand.Rand
	addr   string     // where load and verification go (the primary)
	states []keyState // [conn*crashKeysPerConn + key]
	// totals for the final report (atomics: load connections update them
	// concurrently)
	setsAcked, bgsaves, msets atomic.Int64
	kills                     int
	verifyOps                 int64
	nodes                     []*node     // every server newNode made
	exit                      func(error) // fatal; a test catches it instead
}

// fatalf ends the torture with an error. Deferred kills do not run past the
// exit, so it SIGKILLs and reaps every server still running first: a failed
// run leaves no p2kvs-server behind.
func (h *harness) fatalf(format string, args ...any) {
	for _, n := range h.nodes {
		n.kill()
	}
	h.exit(fmt.Errorf("crash: "+format, args...))
}

func runCrash(cfg crashConfig) {
	if cfg.seed == 0 {
		cfg.seed = time.Now().UnixNano()
	}
	h := &harness{
		rng:    rand.New(rand.NewSource(cfg.seed)),
		states: make([]keyState, cfg.conns*crashKeysPerConn),
		exit:   fatal,
	}
	if cfg.dir == "" {
		d, err := os.MkdirTemp("", "netbench-crash-*")
		if err != nil {
			h.fatalf("mkdtemp: %v", err)
		}
		defer os.RemoveAll(d)
		cfg.dir = d
	}
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		h.fatalf("crash_dir: %v", err)
	}
	h.crashConfig = cfg
	fmt.Printf("netbench crash: mode=%s replica=%v cycles=%d conns=%d pipeline=%d seed=%d dir=%s server_args=%q\n",
		cfg.mode, cfg.replica, cfg.cycles, cfg.conns, cfg.pipeline, cfg.seed, cfg.dir, cfg.serverArgs)
	if cfg.replica {
		h.runPair()
	} else {
		h.runSingle()
	}
}

// node is one server process, restartable on a fixed port.
type node struct {
	h          *harness
	name, addr string
	bin        string
	args       []string
	logs       *os.File
	cmd        *exec.Cmd
}

// newNode picks a port from the kernel (grabbed then released, stable
// for the whole run) and prepares the server command line.
func (h *harness) newNode(name string, extra ...string) *node {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		h.fatalf("pick port: %v", err)
	}
	addr := lis.Addr().String()
	lis.Close()
	dir := h.dir + "/" + name
	logs, err := os.Create(dir + ".log")
	if err != nil {
		h.fatalf("%s log: %v", name, err)
	}
	args := []string{"-addr", addr, "-dir", dir, "-workers", "4",
		"-wal_sync", walSyncFor[h.mode], "-conn_idle_timeout", "30s"}
	args = append(args, extra...)
	args = append(args, strings.Fields(h.serverArgs)...)
	n := &node{h: h, name: name, addr: addr, bin: h.serverBin, args: args, logs: logs}
	h.nodes = append(h.nodes, n)
	return n
}

// start spawns the process and waits until it answers PING.
func (n *node) start() {
	n.cmd = exec.Command(n.bin, n.args...)
	n.cmd.Stdout, n.cmd.Stderr = n.logs, n.logs
	if err := n.cmd.Start(); err != nil {
		n.cmd = nil
		n.h.fatalf("start %s: %v", n.name, err)
	}
	c := cluster.NewConn(n.addr, time.Second)
	defer c.Close()
	for deadline := time.Now().Add(30 * time.Second); time.Now().Before(deadline); time.Sleep(20 * time.Millisecond) {
		if rep, err := c.Do([]byte("PING")); err == nil && !rep.IsError() {
			return
		}
	}
	n.h.fatalf("%s never became ready (see %s)", n.name, n.logs.Name())
}

// kill is SIGKILL: no drain, no flush, no goodbye.
func (n *node) kill() {
	if n.cmd != nil {
		n.cmd.Process.Kill()
		n.cmd.Wait()
		n.cmd = nil
	}
}

// stop is the graceful path: SIGINT, drain, exit 0.
func (n *node) stop() {
	n.cmd.Process.Signal(os.Interrupt)
	err := n.cmd.Wait()
	n.cmd = nil
	if err != nil {
		n.h.fatalf("%s: graceful shutdown failed: %v", n.name, err)
	}
}

func (h *harness) runSingle() {
	srv := h.newNode("db", "-checkpoint_dir", h.dir+"/backup")
	defer srv.kill()
	h.addr = srv.addr
	for cycle := 0; cycle < h.cycles; cycle++ {
		srv.start()
		// The restarted server must still hold everything the previous
		// incarnations acked.
		if err := h.verify(); err != nil {
			h.fatalf("cycle %d: VERIFICATION FAILED: %v", cycle, err)
		}
		h.loadAndKill(srv.kill)
	}
	// Final incarnation: verify, prove the store still accepts writes,
	// then shut down gracefully.
	srv.start()
	if err := h.verify(); err != nil {
		h.fatalf("final: VERIFICATION FAILED: %v", err)
	}
	if err := h.probeWrite(); err != nil {
		h.fatalf("final: store rejected writes after recovery: %v", err)
	}
	srv.stop()
	fmt.Printf("netbench crash: PASS — %d kills, %d acked sets verified across restarts, %d verification reads, %d bgsaves\n",
		h.kills, h.setsAcked.Load(), h.verifyOps, h.bgsaves.Load())
}

// loadAndKill drives pipelined load from every connection (plus a BGSAVE
// connection, so some kills land mid-checkpoint, plus any extra
// loaders), lets it run for a random 150–600ms, then calls kill
// mid-flight and waits for the loaders to notice.
func (h *harness) loadAndKill(kill func(), extra ...func(stop chan struct{})) {
	stop := make(chan struct{})
	loaders := append([]func(chan struct{}){h.bgsaveConn}, extra...)
	for c := 0; c < h.conns; c++ {
		loaders = append(loaders, func(stop chan struct{}) { h.loadConn(c, stop) })
	}
	var wg sync.WaitGroup
	for _, l := range loaders {
		wg.Add(1)
		go func() {
			defer wg.Done()
			l(stop)
		}()
	}
	live := 150*time.Millisecond + time.Duration(h.rng.Int63n(int64(450*time.Millisecond)))
	time.Sleep(live)
	kill()
	h.kills++
	close(stop)
	wg.Wait()
}

// stopped reports whether the cycle's kill has happened.
func stopped(stop chan struct{}) bool {
	select {
	case <-stop:
		return true
	default:
		return false
	}
}

// loadConn owns key partition c and writes it with monotonically
// increasing per-key sequence numbers, recording every ack. It exits on
// the first connection error (the kill).
func (h *harness) loadConn(c int, stop chan struct{}) {
	conn := cluster.NewConn(h.addr, 0)
	defer conn.Close()
	rng := rand.New(rand.NewSource(h.seed + int64(c) + 1))
	ids := make([]uint64, h.pipeline)
	seqs := make([]int64, h.pipeline)
	cmds := make([][][]byte, h.pipeline)
	for !stopped(stop) {
		// One pipeline window of SETs on random keys in this partition.
		for i := range cmds {
			id := uint64(c*crashKeysPerConn + rng.Intn(crashKeysPerConn))
			st := &h.states[id]
			st.attempted++
			ids[i], seqs[i] = id, st.attempted
			cmds[i] = [][]byte{cmdSet, loadgen.Key(id), loadgen.Value(id, st.attempted, valueSize)}
		}
		reps, err := conn.Pipeline(cmds)
		if err != nil {
			return
		}
		for i, rep := range reps {
			if rep.IsError() {
				continue // LOADSHED etc: not acked, seq stays attempted-only
			}
			st := &h.states[ids[i]]
			st.acked = max(st.acked, seqs[i])
			h.setsAcked.Add(1)
		}
	}
}

// bgsaveConn fires BGSAVE repeatedly so some kills land mid-checkpoint.
func (h *harness) bgsaveConn(stop chan struct{}) {
	conn := cluster.NewConn(h.addr, 0)
	defer conn.Close()
	for {
		select {
		case <-stop:
			return
		case <-time.After(50 * time.Millisecond):
		}
		if _, err := conn.Do([]byte("BGSAVE")); err != nil {
			return
		}
		h.bgsaves.Add(1)
	}
}

// msetConn drives cross-partition MSETs against the primary so the
// multi-shard transaction path (begin/legs/commit plus the checkpoint
// cursor-lowering it forces) stays hot while kills land. Divergence is
// caught by compareDumps.
func (h *harness) msetConn(stop chan struct{}) {
	conn := cluster.NewConn(h.addr, 0)
	defer conn.Close()
	rng := rand.New(rand.NewSource(h.seed + 7919))
	for seq := int64(1); !stopped(stop); seq++ {
		cmd := [][]byte{[]byte("MSET")}
		for j := 0; j < 8; j++ {
			id := uint64(crashMsetBase + rng.Intn(64))
			cmd = append(cmd, loadgen.Key(id), loadgen.Value(id, seq, 32))
		}
		rep, err := conn.Do(cmd...)
		if err != nil {
			return
		}
		if !rep.IsError() {
			h.msets.Add(1)
		}
	}
}

// verify walks every key ever attempted and checks the restarted
// server's state against the per-key progress.
func (h *harness) verify() error {
	conn := cluster.NewConn(h.addr, 0)
	defer conn.Close()
	for i := range h.states {
		st := &h.states[i]
		if st.attempted == 0 {
			continue
		}
		id := uint64(i)
		rep, err := conn.Do(cmdGet, loadgen.Key(id))
		if err != nil {
			return err
		}
		h.verifyOps++
		if rep.IsError() {
			return fmt.Errorf("GET %s: server error %q", loadgen.Key(id), rep.Str)
		}
		floor := int64(0)
		if h.mode == "commit" {
			floor = st.acked
		}
		if rep.Nil {
			if floor > 0 {
				return fmt.Errorf("ACKED WRITE LOST: %s acked seq %d but key is gone", loadgen.Key(id), st.acked)
			}
			continue
		}
		// Below the floor an acked write was lost; above the ceiling the
		// store invented a write; anything malformed is corruption.
		seq, err := loadgen.Verify(id, rep.Str, floor, st.attempted)
		if err != nil {
			return fmt.Errorf("%s (acked seq %d, highest attempted %d): %w", loadgen.Key(id), st.acked, st.attempted, err)
		}
		// Recovery must not later resurrect state older than what this
		// pass observed as durable: tighten the floor for the next cycle.
		st.acked = max(st.acked, seq)
	}
	return nil
}

// probeWrite checks the store still accepts and serves a write.
func (h *harness) probeWrite() error {
	conn := cluster.NewConn(h.addr, 0)
	defer conn.Close()
	reps, err := conn.Pipeline([][][]byte{
		cluster.Cmd("SET", "crash-probe", "alive"),
		cluster.Cmd("GET", "crash-probe"),
	})
	if err != nil {
		return err
	}
	if reps[0].IsError() {
		return fmt.Errorf("SET: %s", reps[0].Str)
	}
	if string(reps[1].Str) != "alive" {
		return fmt.Errorf("GET after SET: got %q", reps[1].Str)
	}
	return nil
}

// --- primary/replica pair ---

// awaitSync waits until the replica's link is up and it has fully
// drained the primary's stream, and returns its INFO at that point. A
// replica reads lag 0 against a dead primary that acknowledged writes it
// never shipped after its last heartbeat, until the dead link fails: the
// primary must also hold a link, after a restart the replica's new one.
func awaitSync(primary, replica *cluster.Conn, timeout time.Duration) (loadgen.Info, error) {
	var last loadgen.Info
	for deadline := time.Now().Add(timeout); time.Now().Before(deadline); time.Sleep(25 * time.Millisecond) {
		m, err := loadgen.FetchInfo(replica)
		if err == nil && m["role"] == "replica" && m["master_link_status"] == "up" && m["replica_lag_gsn"] == "0" {
			if p, err := loadgen.FetchInfo(primary); err == nil && p.Int("connected_replicas") > 0 {
				return m, nil
			}
		}
		last = m
	}
	return nil, fmt.Errorf("replica did not converge within %v (status=%s lag=%s err=%q)",
		timeout, last["master_link_status"], last["replica_lag_gsn"], last["master_link_last_error"])
}

// dumpKeys walks the whole keyspace with SCAN, returning the ordered
// key list.
func dumpKeys(c *cluster.Conn) ([][]byte, error) {
	var keys [][]byte
	cursor := []byte("0")
	for {
		rep, err := c.Do([]byte("SCAN"), cursor, []byte("COUNT"), []byte("1000"))
		if err != nil {
			return nil, err
		}
		if rep.IsError() || len(rep.Elems) != 2 {
			return nil, fmt.Errorf("SCAN: %s", rep.String())
		}
		for _, e := range rep.Elems[1].Elems {
			keys = append(keys, e.Str)
		}
		if cursor = rep.Elems[0].Str; string(cursor) == "0" {
			return keys, nil
		}
	}
}

// compareDumps requires the two servers to hold byte-identical ordered
// datasets: same SCAN key sequence, same MGET values. Returns the key
// count.
func compareDumps(primary, replica *cluster.Conn) (int, error) {
	pk, err := dumpKeys(primary)
	if err != nil {
		return 0, fmt.Errorf("primary scan: %v", err)
	}
	rk, err := dumpKeys(replica)
	if err != nil {
		return 0, fmt.Errorf("replica scan: %v", err)
	}
	if len(pk) != len(rk) {
		return 0, fmt.Errorf("DIVERGED: primary holds %d keys, replica %d", len(pk), len(rk))
	}
	for i := range pk {
		if !bytes.Equal(pk[i], rk[i]) {
			return 0, fmt.Errorf("DIVERGED: key %d is %q on primary, %q on replica", i, pk[i], rk[i])
		}
	}
	const chunk = 500
	for off := 0; off < len(pk); off += chunk {
		keys := pk[off:min(off+chunk, len(pk))]
		cmd := append([][]byte{[]byte("MGET")}, keys...)
		prep, err := primary.Do(cmd...)
		if err != nil {
			return 0, err
		}
		rrep, err := replica.Do(cmd...)
		if err != nil {
			return 0, err
		}
		if prep.IsError() || rrep.IsError() || len(prep.Elems) != len(keys) || len(rrep.Elems) != len(keys) {
			return 0, fmt.Errorf("MGET: primary %s, replica %s", prep.String(), rrep.String())
		}
		for i := range keys {
			pv, rv := prep.Elems[i], rrep.Elems[i]
			if pv.Nil != rv.Nil || !bytes.Equal(pv.Str, rv.Str) {
				return 0, fmt.Errorf("DIVERGED: %q is %q on primary, %q on replica", keys[i], pv.String(), rv.String())
			}
		}
	}
	return len(pk), nil
}

// overflowBacklog writes large values to the primary until every record
// that was in its backlog at the start has been trimmed away — at that
// point a cursor from before the overflow is provably outside the
// retention window and only a full sync can serve it.
func overflowBacklog(c *cluster.Conn) error {
	m, err := loadgen.FetchInfo(c)
	if err != nil {
		return err
	}
	target := m.Int("repl_backlog_trimmed") + m.Int("repl_backlog_records") + 1
	cmds := make([][][]byte, 64)
	for i := 0; i <= 4096; i++ {
		for j := range cmds {
			id := uint64(crashOverflowBase + (i*64+j)%4096)
			cmds[j] = [][]byte{cmdSet, loadgen.Key(id), loadgen.Value(id, 0, 4096)}
		}
		if _, err := c.Pipeline(cmds); err != nil {
			return err
		}
		if m, err = loadgen.FetchInfo(c); err != nil {
			return err
		}
		if m.Int("repl_backlog_trimmed") >= target {
			return nil
		}
	}
	return errors.New("backlog never trimmed past its starting records")
}

func (h *harness) runPair() {
	repl := []string{"-repl_backlog", fmt.Sprint(crashReplBacklog)}
	primary := h.newNode("primary", append(repl, "-checkpoint_dir", h.dir+"/backup")...)
	replica := h.newNode("replica", append(repl, "-replicaof", primary.addr)...)
	defer primary.kill()
	defer replica.kill()
	h.addr = primary.addr
	pc, rc := cluster.NewConn(primary.addr, 0), cluster.NewConn(replica.addr, 0)
	defer pc.Close()
	defer rc.Close()
	// converged requires the primary to honor the durability contract
	// and the replica to hold a byte-identical dataset.
	converged := func(stage string, timeout time.Duration) int {
		if err := h.verify(); err != nil {
			h.fatalf("%s: PRIMARY VERIFICATION FAILED: %v", stage, err)
		}
		if _, err := awaitSync(pc, rc, timeout); err != nil {
			h.fatalf("%s: %v", stage, err)
		}
		n, err := compareDumps(pc, rc)
		if err != nil {
			h.fatalf("%s: %v", stage, err)
		}
		return n
	}

	primary.start()
	replica.start()
	partialResyncs := 0
	for cycle := 0; cycle < h.cycles; cycle++ {
		stage := fmt.Sprintf("cycle %d", cycle)
		converged(stage, 60*time.Second)
		// Load against the primary, then kill the cycle's victim
		// mid-stream. Victims rotate so every cut point is exercised.
		victim := cycle % 3
		h.loadAndKill(func() {
			if victim == 0 || victim == 2 {
				replica.kill()
			}
			if victim == 1 || victim == 2 {
				primary.kill()
			}
		}, h.msetConn)
		if primary.cmd == nil {
			primary.start()
		}
		if replica.cmd == nil {
			replica.start()
		}
		// A replica killed under a live primary must come back with a
		// partial resync: its cursors are inside the backlog the
		// surviving primary kept. The counters are process-local, so on
		// the freshly restarted replica they isolate this reconnect.
		if victim == 0 {
			m, err := awaitSync(pc, rc, 60*time.Second)
			if err != nil {
				h.fatalf("%s: after replica kill: %v", stage, err)
			}
			p, f := m.Int("replica_partial_syncs"), m.Int("replica_full_syncs")
			if p == 0 {
				h.fatalf("%s: replica restarted under a live primary but did not partial-resync (partial=%d full=%d)", stage, p, f)
			}
			partialResyncs += int(p)
		}
	}
	converged("final", 60*time.Second)

	// Out-of-window: hold the replica down until the primary's backlog
	// has trimmed past everything the replica ever saw, then prove the
	// reconnect falls back to a full sync and still converges.
	replica.kill()
	if err := overflowBacklog(pc); err != nil {
		h.fatalf("overflow: %v", err)
	}
	replica.start()
	keys := converged("out-of-window", 120*time.Second)
	m, err := loadgen.FetchInfo(rc)
	if err != nil {
		h.fatalf("out-of-window: %v", err)
	}
	if m.Int("replica_full_syncs") < 1 {
		h.fatalf("out-of-window: replica reconnected without a full sync (partial=%d full=%d)",
			m.Int("replica_partial_syncs"), m.Int("replica_full_syncs"))
	}
	replica.stop()
	primary.stop()
	fmt.Printf("netbench crash: PASS (replica) — %d kills, %d acked sets, %d msets, %d partial resyncs, full-sync fallback verified, %d keys identical\n",
		h.kills, h.setsAcked.Load(), h.msets.Load(), partialResyncs, keys)
}
