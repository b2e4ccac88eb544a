package server

import (
	"context"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"p2kvs"
	"p2kvs/internal/vfs"
)

// replNode is one in-process replication-enabled server over a private
// in-memory store, as netbench -cluster and the cluster client tests boot
// them.
type replNode struct {
	srv  *Server
	addr string
	done chan struct{}
}

// startReplNode boots a replication-enabled node. replicaOf, when
// non-empty, makes it follow that primary from startup.
func startReplNode(t *testing.T, workers int, backlog int64, replicaOf string) *replNode {
	t.Helper()
	return startReplNodeOn(t, vfs.NewMem(), workers, backlog, replicaOf)
}

// startReplNodeOn is startReplNode staging its full syncs on replFS.
func startReplNodeOn(t *testing.T, replFS vfs.FS, workers int, backlog int64, replicaOf string) *replNode {
	t.Helper()
	return startReplNodeWith(t, p2kvs.Options{Dir: "db", InMemory: true, Workers: workers, ReplBacklogBytes: backlog}, replFS, replicaOf)
}

// startReplNodeWith boots a node over a store opened with opts.
func startReplNodeWith(t *testing.T, opts p2kvs.Options, replFS vfs.FS, replicaOf string) *replNode {
	t.Helper()
	st, err := p2kvs.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Config{
		Store:        st,
		ReplDir:      "repl",
		ReplFS:       replFS,
		RestoreStore: p2kvs.RestoreReplica(opts),
		ReplicaOf:    replicaOf,
	})
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	n := &replNode{srv: srv, addr: lis.Addr().String(), done: make(chan struct{})}
	go func() {
		srv.Serve(lis)
		close(n.done)
	}()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		select {
		case <-n.done:
		case <-time.After(10 * time.Second):
			t.Error("replNode Serve did not return")
		}
	})
	return n
}

func (n *replNode) dial(t *testing.T) *client {
	t.Helper()
	nc, err := net.Dial("tcp", n.addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	return &client{nc: nc, rd: NewReader(nc), wr: NewWriter(nc)}
}

// infoMap fetches INFO and parses it into a key→value map.
func infoMap(t *testing.T, c *client) map[string]string {
	t.Helper()
	rep := c.do(t, "INFO")
	m := make(map[string]string)
	for _, line := range strings.Split(string(rep.Str), "\r\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && !strings.HasPrefix(k, "#") {
			m[k] = v
		}
	}
	return m
}

func infoInt(t *testing.T, c *client, key string) int64 {
	t.Helper()
	v, err := strconv.ParseInt(infoMap(t, c)[key], 10, 64)
	if err != nil {
		t.Fatalf("INFO %s: %v", key, err)
	}
	return v
}

// dumpAll walks SCAN+MGET and returns the full ordered key→value dump —
// the byte-identical convergence check.
func dumpAll(t *testing.T, c *client) string {
	t.Helper()
	var b strings.Builder
	cursor := "0"
	for {
		rep := c.do(t, "SCAN", cursor, "COUNT", "1000")
		if rep.Kind != '*' || len(rep.Elems) != 2 {
			t.Fatalf("bad SCAN reply: %+v", rep)
		}
		keys := rep.Elems[1].Elems
		if len(keys) > 0 {
			args := []string{"MGET"}
			for _, k := range keys {
				args = append(args, string(k.Str))
			}
			vals := c.do(t, args...)
			for i, k := range keys {
				fmt.Fprintf(&b, "%s=%s\n", k.Str, vals.Elems[i].Str)
			}
		}
		cursor = string(rep.Elems[0].Str)
		if cursor == "0" {
			return b.String()
		}
	}
}

func mustOK(t *testing.T, rep Reply) {
	t.Helper()
	if rep.Kind == '-' {
		t.Fatalf("unexpected error reply: %s", rep.Str)
	}
}

// waitConverged waits until the replica serves the probe key with the
// expected value.
func waitConverged(t *testing.T, c *client, key, want string) {
	t.Helper()
	waitFor(t, func() bool {
		rep := c.do(t, "GET", key)
		return !rep.Nil && string(rep.Str) == want
	})
}

// TestReplFullSyncAndStream is the happy path end to end: a replica
// bootstraps from a primary that already has data (full sync), tails
// the live stream, enforces read-only mode, and reports both roles
// through INFO.
func TestReplFullSyncAndStream(t *testing.T) {
	prim := startReplNode(t, 4, 1<<20, "")
	pc := prim.dial(t)
	for i := 0; i < 200; i++ {
		mustOK(t, pc.do(t, "SET", fmt.Sprintf("seed-%03d", i), fmt.Sprintf("v%d", i)))
	}

	rep := startReplNode(t, 4, 1<<20, prim.addr)
	rc := rep.dial(t)
	waitConverged(t, rc, "seed-199", "v199")

	// Live stream after the bootstrap image.
	for i := 0; i < 100; i++ {
		mustOK(t, pc.do(t, "SET", fmt.Sprintf("live-%03d", i), "x"))
	}
	waitConverged(t, rc, "live-099", "x")
	waitFor(t, func() bool { return dumpAll(t, pc) == dumpAll(t, rc) })

	// Roles and counters.
	pi, ri := infoMap(t, pc), infoMap(t, rc)
	if pi["role"] != "master" || ri["role"] != "replica" {
		t.Fatalf("roles: primary=%q replica=%q", pi["role"], ri["role"])
	}
	if pi["repl_full_syncs_served"] != "1" {
		t.Fatalf("repl_full_syncs_served=%s, want 1", pi["repl_full_syncs_served"])
	}
	if ri["replica_full_syncs"] != "1" {
		t.Fatalf("replica_full_syncs=%s, want 1", ri["replica_full_syncs"])
	}
	if ri["master_link_status"] != "up" {
		t.Fatalf("master_link_status=%s", ri["master_link_status"])
	}
	if pi["connected_replicas"] != "1" {
		t.Fatalf("connected_replicas=%s", pi["connected_replicas"])
	}

	// Read-only enforcement, including the coalesced-run write path.
	for _, cmd := range [][]string{
		{"SET", "w", "1"}, {"DEL", "w"}, {"MSET", "a", "1", "b", "2"},
	} {
		r := rc.do(t, cmd...)
		if r.Kind != '-' || !strings.HasPrefix(string(r.Str), "READONLY replica") {
			t.Fatalf("%v on replica: got %q, want -READONLY replica", cmd, r.Str)
		}
	}
	runReplies := rc.pipeline(t, []string{"SET", "r1", "x"}, []string{"SET", "r2", "x"}, []string{"SET", "r3", "x"})
	for i, r := range runReplies {
		if r.Kind != '-' || !strings.HasPrefix(string(r.Str), "READONLY replica") {
			t.Fatalf("coalesced SET %d on replica: got %q", i, r.Str)
		}
	}
	// Reads still served.
	if got := rc.do(t, "GET", "seed-000"); string(got.Str) != "v0" {
		t.Fatalf("replica GET seed-000 = %q", got.Str)
	}
}

// TestReplConcurrentFullSyncs attaches two replicas to one primary at the
// same moment while writes keep arriving. The first image staged (sequence
// 1) reads slowly, so its send outlasts the second sync's checkpoint
// unless that checkpoint waits for the staging directory. Both replicas
// converge to the primary's dump, each with one clean full sync.
func TestReplConcurrentFullSyncs(t *testing.T) {
	slow := vfs.NewFault(vfs.NewMem())
	slow.Inject(vfs.Rule{Op: vfs.OpRead, Path: "ckpt000001", DelayOnly: true, Delay: 10 * time.Millisecond})
	prim := startReplNodeOn(t, slow, 4, 1<<20, "")
	pc := prim.dial(t)
	val := strings.Repeat("v", 200)
	for i := 0; i < 2000; i += 100 {
		args := []string{"MSET"}
		for j := i; j < i+100; j++ {
			args = append(args, fmt.Sprintf("seed-%04d", j), val)
		}
		mustOK(t, pc.do(t, args...))
	}

	rcs := []*client{startReplNode(t, 4, 1<<20, "").dial(t), startReplNode(t, 4, 1<<20, "").dial(t)}
	host, port, _ := net.SplitHostPort(prim.addr)
	for _, rc := range rcs {
		rc.send(t, "REPLICAOF", host, port)
	}
	for _, rc := range rcs {
		rep, ok := rc.tryRead(t, 5*time.Second)
		if !ok {
			t.Fatal("REPLICAOF: no reply")
		}
		mustOK(t, rep)
	}
	for i := 0; i < 100; i++ {
		mustOK(t, pc.do(t, "SET", fmt.Sprintf("live-%03d", i), "x"))
	}
	for i, rc := range rcs {
		waitConverged(t, rc, "live-099", "x")
		waitFor(t, func() bool { return dumpAll(t, pc) == dumpAll(t, rc) })
		if ri := infoMap(t, rc); ri["master_link_last_error"] != "" || ri["replica_full_syncs"] != "1" {
			t.Errorf("replica %d: %s full syncs, last link error %q", i, ri["replica_full_syncs"], ri["master_link_last_error"])
		}
	}
	if n := infoInt(t, pc, "repl_full_syncs_served"); n != 2 {
		t.Fatalf("repl_full_syncs_served=%d, want 2", n)
	}
}

// TestReplPartialResync proves the GSN-cursor resume: a replica that
// detaches and re-attaches within the backlog window continues the
// stream (no second full sync) from its persisted cursors.
func TestReplPartialResync(t *testing.T) {
	prim := startReplNode(t, 2, 1<<20, "")
	pc := prim.dial(t)
	mustOK(t, pc.do(t, "SET", "k0", "v0"))

	rep := startReplNode(t, 2, 1<<20, prim.addr)
	rc := rep.dial(t)
	waitConverged(t, rc, "k0", "v0")

	// Detach; the lineage + cursors persisted in REPLSTATE survive.
	mustOK(t, rc.do(t, "REPLICAOF", "NO", "ONE"))
	// Primary advances while the replica is away — well inside 1 MiB.
	for i := 0; i < 300; i++ {
		mustOK(t, pc.do(t, "SET", fmt.Sprintf("away-%03d", i), "y"))
	}
	// Re-attach: must resume via partial sync.
	host, port, _ := net.SplitHostPort(prim.addr)
	mustOK(t, rc.do(t, "REPLICAOF", host, port))
	waitConverged(t, rc, "away-299", "y")
	waitFor(t, func() bool { return dumpAll(t, pc) == dumpAll(t, rc) })

	if n := infoInt(t, pc, "repl_partial_syncs_served"); n < 1 {
		t.Fatalf("repl_partial_syncs_served=%d, want >=1", n)
	}
	if n := infoInt(t, pc, "repl_full_syncs_served"); n != 1 {
		t.Fatalf("repl_full_syncs_served=%d, want exactly the bootstrap one", n)
	}
	if n := infoInt(t, rc, "replica_partial_syncs"); n < 1 {
		t.Fatalf("replica_partial_syncs=%d, want >=1", n)
	}
}

// TestReplicaDamagedStateFullSyncs restarts a replica whose REPLSTATE
// was damaged while it was down, once by a flipped byte and once by a
// truncation. The restarted process must not resume from whatever the
// file now says: it full-syncs once, partial-syncs never, and converges to
// the primary's dump.
func TestReplicaDamagedStateFullSyncs(t *testing.T) {
	for _, tc := range []struct {
		name   string
		damage func([]byte) []byte
	}{
		{"flipped byte", func(b []byte) []byte { b[len(b)/2] ^= 0x01; return b }},
		{"truncated", func(b []byte) []byte { return b[:len(b)-3] }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			prim := startReplNode(t, 2, 1<<20, "")
			pc := prim.dial(t)
			for i := 0; i < 100; i++ {
				mustOK(t, pc.do(t, "SET", fmt.Sprintf("k%03d", i), "v0"))
			}
			replFS := vfs.NewMem()
			opts := p2kvs.Options{Dir: t.TempDir() + "/db", Workers: 2, ReplBacklogBytes: 1 << 20}
			rep := startReplNodeWith(t, opts, replFS, prim.addr)
			waitConverged(t, rep.dial(t), "k099", "v0")
			// Shut the replica down; its store's files and REPLSTATE stay.
			if err := rep.srv.Shutdown(context.Background()); err != nil {
				t.Fatal(err)
			}
			state := "repl/" + replStateName
			data, err := vfs.ReadFile(replFS, state)
			if err != nil {
				t.Fatal(err)
			}
			if err := vfs.WriteFile(replFS, state, tc.damage(data)); err != nil {
				t.Fatal(err)
			}
			// The primary moves on while the replica is away: a resume from
			// a wrong cursor would skip or replay part of this.
			for i := 0; i < 100; i++ {
				mustOK(t, pc.do(t, "SET", fmt.Sprintf("k%03d", i), "v1"))
			}

			rc := startReplNodeWith(t, opts, replFS, prim.addr).dial(t)
			waitConverged(t, rc, "k099", "v1")
			waitFor(t, func() bool { return dumpAll(t, pc) == dumpAll(t, rc) })
			ri := infoMap(t, rc)
			if ri["replica_full_syncs"] != "1" || ri["replica_partial_syncs"] != "0" {
				t.Fatalf("restarted replica: %s full syncs, %s partial, want 1 and 0",
					ri["replica_full_syncs"], ri["replica_partial_syncs"])
			}
		})
	}
}

// TestReplOutOfWindowFullSyncFallback starves the backlog: with the
// replica detached, the primary writes far past the tiny retention
// budget, so the re-attach cannot partial-sync and must fall back to a
// full sync — and still converge to an identical dump.
func TestReplOutOfWindowFullSyncFallback(t *testing.T) {
	prim := startReplNode(t, 2, 8<<10, "") // 8 KiB backlog
	pc := prim.dial(t)
	mustOK(t, pc.do(t, "SET", "k0", "v0"))

	rep := startReplNode(t, 2, 8<<10, prim.addr)
	rc := rep.dial(t)
	waitConverged(t, rc, "k0", "v0")
	mustOK(t, rc.do(t, "REPLICAOF", "NO", "ONE"))

	// Blow through the 8 KiB window while detached.
	val := strings.Repeat("z", 256)
	for i := 0; i < 400; i++ {
		mustOK(t, pc.do(t, "SET", fmt.Sprintf("big-%04d", i), val))
	}
	host, port, _ := net.SplitHostPort(prim.addr)
	mustOK(t, rc.do(t, "REPLICAOF", host, port))
	waitConverged(t, rc, "big-0399", val)
	waitFor(t, func() bool { return dumpAll(t, pc) == dumpAll(t, rc) })

	if n := infoInt(t, pc, "repl_full_syncs_served"); n != 2 {
		t.Fatalf("repl_full_syncs_served=%d, want 2 (bootstrap + fallback)", n)
	}
	if n := infoInt(t, rc, "replica_full_syncs"); n != 2 {
		t.Fatalf("replica_full_syncs=%d, want 2", n)
	}
}

// TestReplicaOfNoOnePromotes verifies promotion: after REPLICAOF NO
// ONE the node accepts writes again and reports role:master.
func TestReplicaOfNoOnePromotes(t *testing.T) {
	prim := startReplNode(t, 2, 1<<20, "")
	pc := prim.dial(t)
	mustOK(t, pc.do(t, "SET", "k", "v"))

	rep := startReplNode(t, 2, 1<<20, prim.addr)
	rc := rep.dial(t)
	waitConverged(t, rc, "k", "v")
	if r := rc.do(t, "SET", "p", "1"); r.Kind != '-' {
		t.Fatal("replica accepted a write before promotion")
	}
	mustOK(t, rc.do(t, "REPLICAOF", "NO", "ONE"))
	mustOK(t, rc.do(t, "SET", "p", "1"))
	if got := rc.do(t, "GET", "p"); string(got.Str) != "1" {
		t.Fatalf("promoted node GET p = %q", got.Str)
	}
	if role := infoMap(t, rc)["role"]; role != "master" {
		t.Fatalf("role after promotion = %q", role)
	}
}

// TestReplDisabledErrors covers the guard rails: PSYNC and REPLICAOF
// against a store opened without a replication backlog fail loudly.
func TestReplDisabledErrors(t *testing.T) {
	ts := startTestServer(t, 2, nil, nil, Config{})
	c := dialTest(t, ts)
	if r := c.do(t, "PSYNC", "?"); r.Kind != '-' || !strings.Contains(string(r.Str), "replication disabled") {
		t.Fatalf("PSYNC without backlog: %q", r.Str)
	}
	if r := c.do(t, "REPLICAOF", "127.0.0.1", "1"); r.Kind != '-' {
		t.Fatalf("REPLICAOF without backlog: %q", r.Str)
	}
}

// delayProxy forwards one TCP connection pair, delaying every chunk in
// the primary→replica direction by d — injected link latency for the
// staleness bound test.
type delayProxy struct {
	lis   net.Listener
	addr  string
	delay time.Duration
}

func startDelayProxy(t *testing.T, target string, d time.Duration) *delayProxy {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &delayProxy{lis: lis, addr: lis.Addr().String(), delay: d}
	t.Cleanup(func() { lis.Close() })
	go func() {
		for {
			in, err := lis.Accept()
			if err != nil {
				return
			}
			out, err := net.Dial("tcp", target)
			if err != nil {
				in.Close()
				continue
			}
			go func() { // replica → primary: undelayed
				io.Copy(out, in)
				out.Close()
				in.Close()
			}()
			go func() { // primary → replica: delay each chunk
				buf := make([]byte, 32<<10)
				for {
					n, err := out.Read(buf)
					if n > 0 {
						time.Sleep(d)
						if _, werr := in.Write(buf[:n]); werr != nil {
							break
						}
					}
					if err != nil {
						break
					}
				}
				out.Close()
				in.Close()
			}()
		}
	}()
	return p
}

// TestReplicaMonotonicReadsAndStalenessBound is satellite 3: under an
// injected 30 ms link delay, (a) a single-key counter observed through
// the replica never goes backwards (per-worker GSN order is preserved
// end to end), and (b) every primary write becomes visible on the
// replica within a bound that is link delay + ack slack, not seconds.
func TestReplicaMonotonicReadsAndStalenessBound(t *testing.T) {
	const linkDelay = 30 * time.Millisecond
	prim := startReplNode(t, 2, 1<<20, "")
	proxy := startDelayProxy(t, prim.addr, linkDelay)
	rep := startReplNode(t, 2, 1<<20, proxy.addr)

	pc := prim.dial(t)
	rc := rep.dial(t)
	mustOK(t, pc.do(t, "SET", "ctr", "0"))
	waitConverged(t, rc, "ctr", "0")

	// Reader goroutine: observed counter values must be non-decreasing.
	stop := make(chan struct{})
	readerDone := make(chan struct{})
	var violation atomic.Value
	go func() {
		defer close(readerDone)
		nc, err := net.Dial("tcp", rep.addr)
		if err != nil {
			violation.Store(fmt.Sprintf("reader dial: %v", err))
			return
		}
		defer nc.Close()
		c := &client{nc: nc, rd: NewReader(nc), wr: NewWriter(nc)}
		wr, rd := c.wr, c.rd
		last := -1
		for {
			select {
			case <-stop:
				return
			default:
			}
			wr.WriteCommand([]byte("GET"), []byte("ctr"))
			if wr.Flush() != nil {
				return
			}
			rep, err := rd.ReadReply()
			if err != nil {
				return
			}
			v, err := strconv.Atoi(string(rep.Str))
			if err != nil {
				violation.Store(fmt.Sprintf("non-numeric ctr %q", rep.Str))
				return
			}
			if v < last {
				violation.Store(fmt.Sprintf("monotonic reads violated: %d after %d", v, last))
				return
			}
			last = v
		}
	}()

	// Writer: bump the counter, measuring per-write visibility latency.
	const writes = 40
	var worst time.Duration
	for i := 1; i <= writes; i++ {
		v := strconv.Itoa(i)
		mustOK(t, pc.do(t, "SET", "ctr", v))
		start := time.Now()
		waitConverged(t, rc, "ctr", v)
		if d := time.Since(start); d > worst {
			worst = d
		}
	}
	close(stop)
	<-readerDone
	if msg := violation.Load(); msg != nil {
		t.Fatal(msg)
	}
	// Bound: link delay + ack/apply slack. The CI-safe ceiling is loose
	// (2 s); the point is that staleness tracks the link delay rather
	// than growing with writes or drifting unboundedly.
	if worst > 2*time.Second {
		t.Fatalf("worst-case staleness %v exceeds bound", worst)
	}
	t.Logf("worst-case replica staleness under %v link delay: %v", linkDelay, worst)
}
