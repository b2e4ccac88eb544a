package server

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"p2kvs/internal/checkpoint"
	"p2kvs/internal/core"
	"p2kvs/internal/repl"
	"p2kvs/internal/stats"
	"p2kvs/internal/vfs"
)

// GSN log-shipping replication, server side. A replica issues
//
//	PSYNC <replid|?> <cursor0> <cursor1> ...
//
// over the normal RESP connection. If the cursors name this primary's
// lineage and still sit inside the retained backlog window, the reply is
// "+CONTINUE <replid>" and the connection switches to the binary frame
// protocol (internal/repl), streaming every backlog record past the
// cursors. Otherwise the reply is "+FULLSYNC <replid> <workers>": the
// primary stages a GSN-barrier checkpoint, ships every image file as a
// FrameFile, terminates the image with the FrameManifest, and streams
// from the manifest's per-worker watermarks — the full-sync handoff is
// exactly the checkpoint-cursor contract the core layer guarantees.
//
// The replica side is a managed loop (replicaMgr): dial, PSYNC from the
// persisted cursor state, restore+swap the store on a full sync, apply
// data frames through Store.ApplyRepl, acknowledge applied cursors
// (which advance the primary-side pin deferring backlog truncation),
// and reconnect with capped backoff when the link drops.

const (
	// replHeartbeatInterval paces primary→replica liveness frames on an
	// idle stream; each carries the primary's per-worker watermarks so an
	// idle replica still tracks its lag.
	replHeartbeatInterval = time.Second
	// replAckInterval paces replica→primary progress acks during a busy
	// stream (each ack also persists the cursor state file).
	replAckInterval = 200 * time.Millisecond
	// replReadTimeout tears down a link with no traffic at all — several
	// missed heartbeats.
	replReadTimeout = 5 * replHeartbeatInterval
	// replWriteTimeout bounds stream writes so a wedged peer cannot pin
	// the goroutine forever.
	replWriteTimeout = 30 * time.Second
	// replDialTimeout bounds the replica's connect attempt.
	replDialTimeout = 5 * time.Second
	// replHandshakeTimeout bounds the wait for the PSYNC reply, which on
	// a full sync arrives only after the primary stages a checkpoint.
	replHandshakeTimeout = 60 * time.Second
	// replStateName is the cursor state file inside Config.ReplDir.
	replStateName = "REPLSTATE"
)

// replState is the server's replication role state: the replica manager
// (when the server follows a primary) plus primary-side sync counters
// and the set of attached replica links.
type replState struct {
	srv *Server

	mu    sync.Mutex
	mgr   *replicaMgr          // non-nil while the server is a replica
	links map[string]*replLink // primary side: attached replica streams

	// Primary-side lifetime counters.
	fullSyncsServed    atomic.Int64
	partialSyncsServed atomic.Int64
	// Replica-side lifetime counters (survive REPLICAOF changes).
	fullSyncsDone    atomic.Int64
	partialSyncsDone atomic.Int64

	// fullSyncMu serializes full syncs, from the checkpoint to the last
	// frame sent: concurrent checkpoints into the shared sync directory
	// would race on the backup set's sequence numbers, and a checkpoint's
	// GC deletes files an image still being sent may need.
	fullSyncMu sync.Mutex
	linkSeq    atomic.Int64
}

func newReplState(s *Server) *replState {
	return &replState{srv: s, links: make(map[string]*replLink)}
}

// replLink is one attached replica stream, tracked for INFO.
type replLink struct {
	id   string
	addr string

	mu      sync.Mutex
	ack     []uint64
	lastAck time.Time
	full    bool // bootstrapped via full sync
}

func (l *replLink) setAck(cursors []uint64) {
	l.mu.Lock()
	l.ack = append(l.ack[:0], cursors...)
	l.lastAck = time.Now()
	l.mu.Unlock()
}

func (l *replLink) snapshot() (ack []uint64, last time.Time, full bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]uint64(nil), l.ack...), l.lastAck, l.full
}

func (rs *replState) attach(id, addr string) *replLink {
	l := &replLink{id: id, addr: addr}
	rs.mu.Lock()
	rs.links[id] = l
	rs.mu.Unlock()
	return l
}

func (rs *replState) detach(id string) {
	rs.mu.Lock()
	delete(rs.links, id)
	rs.mu.Unlock()
}

// isReplica reports whether the server currently follows a primary —
// the read-only guard every write command checks before touching the
// store.
func (rs *replState) isReplica() bool {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return rs.mgr != nil
}

// startReplica points the server at a primary, starting (or re-pointing)
// the replica manager.
func (rs *replState) startReplica(addr string) error {
	cfg := rs.srv.cfg
	if cfg.RestoreStore == nil {
		return errors.New("replication unavailable: server built without a RestoreStore callback")
	}
	if cfg.ReplDir == "" {
		return errors.New("replication unavailable: server started without a replication directory (-repl_dir)")
	}
	if rs.srv.store().ReplLog() == nil {
		return errors.New("replication unavailable: store opened without a replication backlog (-repl_backlog)")
	}
	rs.mu.Lock()
	if rs.mgr != nil && rs.mgr.addr == addr {
		rs.mu.Unlock()
		return nil
	}
	old := rs.mgr
	rs.mgr = nil
	rs.mu.Unlock()
	if old != nil {
		old.halt()
	}
	m := &replicaMgr{
		srv:    rs.srv,
		rs:     rs,
		addr:   addr,
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
		status: "connecting",
	}
	m.loadState()
	rs.mu.Lock()
	rs.mgr = m
	rs.mu.Unlock()
	go m.run()
	rs.srv.cfg.Logf("p2kvs-server: replicating from %s", addr)
	return nil
}

// stopReplica detaches from the primary (REPLICAOF NO ONE / shutdown);
// the store keeps serving — now as a writable primary of its own
// lineage.
func (rs *replState) stopReplica() {
	rs.mu.Lock()
	m := rs.mgr
	rs.mgr = nil
	rs.mu.Unlock()
	if m != nil {
		m.halt()
		rs.srv.cfg.Logf("p2kvs-server: replication stopped (was following %s)", m.addr)
	}
}

func (rs *replState) manager() *replicaMgr {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return rs.mgr
}

// ---------------------------------------------------------------------------
// Primary side: PSYNC handler and the backlog stream feeder
// ---------------------------------------------------------------------------

// execPsync handles the replica handshake and, on success, turns this
// connection into a replication stream for its remaining lifetime.
func (c *conn) execPsync(cmd [][]byte) {
	st := c.srv.store()
	log := st.ReplLog()
	if log == nil {
		c.wr.WriteError("ERR replication disabled: store opened without a replication backlog")
		return
	}
	if len(cmd) < 2 {
		c.argErr("psync")
		return
	}
	replid := string(cmd[1])
	cursors := make([]uint64, 0, len(cmd)-2)
	for _, a := range cmd[2:] {
		v, err := strconv.ParseUint(string(a), 10, 64)
		if err != nil {
			c.wr.WriteError("ERR PSYNC cursors must be decimal GSNs")
			return
		}
		cursors = append(cursors, v)
	}

	pinID := fmt.Sprintf("replica-%s-%d", c.nc.RemoteAddr(), c.srv.repl.linkSeq.Add(1))
	log.Pin(pinID)
	defer log.Unpin(pinID)
	link := c.srv.repl.attach(pinID, c.nc.RemoteAddr().String())
	defer c.srv.repl.detach(pinID)

	// Partial sync: same lineage and every cursor still inside the
	// retained window. SetPin runs before the Covers check, so a record
	// the check admits can no longer be trimmed out from under the
	// stream; if a trim won the race, Covers fails and we fall back.
	partial := false
	if replid == log.ID() && len(cursors) == log.Workers() {
		log.SetPin(pinID, cursors)
		partial = log.Covers(cursors)
	}
	start := append([]uint64(nil), cursors...)
	if partial {
		c.srv.repl.partialSyncsServed.Add(1)
		c.wr.WriteSimple("CONTINUE " + log.ID())
		if c.flush() != nil {
			return
		}
	} else {
		if !c.serveFullSync(st, log, pinID, &start) {
			return
		}
		c.srv.repl.fullSyncsServed.Add(1)
		link.mu.Lock()
		link.full = true
		link.mu.Unlock()
	}
	link.setAck(start)
	c.closing = true // the connection never returns to command mode
	c.streamBacklog(log, pinID, link, start)
}

// serveFullSync stages a checkpoint image and ships it: FrameFile per
// image file, FrameManifest last. On success *cursors holds the
// manifest's per-worker watermarks — where the stream resumes.
func (c *conn) serveFullSync(st *core.Store, log *repl.Log, pinID string, cursors *[]uint64) bool {
	cfg := c.srv.cfg
	if cfg.ReplDir == "" {
		c.wr.WriteError("ERR full sync unavailable: server started without a replication directory")
		return false
	}
	rs := c.srv.repl
	fs := cfg.replFS()
	dir := cfg.ReplDir + "/sync"

	// Held to the image's last frame: its files are read as they are sent.
	rs.fullSyncMu.Lock()
	defer rs.fullSyncMu.Unlock()
	m, err := st.Checkpoint(fs, dir)
	if err != nil {
		c.wr.WriteError("ERR full sync checkpoint failed: " + err.Error())
		return false
	}
	// The pin moves to the image's watermarks before writes resume past
	// them on this goroutine; records after the checkpoint barrier are
	// now retained for the stream.
	log.SetPin(pinID, m.WorkerGSN)

	c.wr.WriteSimple(fmt.Sprintf("FULLSYNC %s %d", log.ID(), log.Workers()))
	c.closing = true // frames follow: a failure below ends the connection
	if c.flush() != nil {
		return false
	}
	// Every frame is written under its own deadline, so a wedged replica
	// holds the staging lock for one replWriteTimeout at most. A file that
	// cannot be read drops the link; the replica redials.
	bw := bufio.NewWriterSize(c.nc, 64<<10)
	defer c.nc.SetWriteDeadline(time.Time{})
	send := func(kind byte, payload []byte) bool {
		c.nc.SetWriteDeadline(time.Now().Add(replWriteTimeout))
		return repl.WriteFrame(bw, repl.Frame{Kind: kind, Payload: payload}) == nil
	}
	readFailed := func(err error) bool {
		cfg.Logf("p2kvs-server: full sync image read failed: %v", err)
		return false
	}
	for _, f := range m.Files {
		data, err := vfs.ReadFile(fs, dir+"/"+f.Path)
		if err != nil {
			return readFailed(err)
		}
		if !send(repl.FrameFile, repl.EncodeFile(f.Path, data)) {
			return false
		}
	}
	data, err := vfs.ReadFile(fs, dir+"/"+checkpoint.ManifestName)
	if err != nil {
		return readFailed(err)
	}
	if !send(repl.FrameManifest, data) || bw.Flush() != nil {
		return false
	}
	*cursors = append([]uint64(nil), m.WorkerGSN...)
	return true
}

// streamBacklog feeds the replication stream: data frames for every
// backlog record past the cursors, heartbeats when idle, and a reader
// goroutine consuming the replica's acks (which advance the pin). It
// returns when the link drops, the server drains, or a full sync swaps
// the serving store (stale log).
func (c *conn) streamBacklog(log *repl.Log, pinID string, link *replLink, cursors []uint64) {
	nc := c.nc
	stop := make(chan struct{})
	var once sync.Once
	teardown := func() { once.Do(func() { close(stop); nc.Close() }) }
	defer teardown()

	go func() {
		defer teardown()
		for {
			// Rolling deadline (replacing readWindow's absolute idle
			// deadline): the replica acks at least once per heartbeat, so
			// silence this long means a dead peer.
			nc.SetReadDeadline(time.Now().Add(replReadTimeout))
			f, err := repl.ReadFrame(c.rd.br)
			if err != nil {
				return
			}
			if f.Kind != repl.FrameAck {
				return // protocol violation: tear the link down
			}
			ack, err := repl.DecodeCursors(f.Payload)
			if err != nil {
				return
			}
			log.Advance(pinID, ack)
			link.setAck(ack)
		}
	}()

	bw := bufio.NewWriterSize(nc, 64<<10)
	flush := func() error {
		nc.SetWriteDeadline(time.Now().Add(replWriteTimeout))
		err := bw.Flush()
		nc.SetWriteDeadline(time.Time{})
		return err
	}
	for {
		select {
		case <-stop:
			return
		case <-c.srv.drainCh:
			return
		default:
		}
		if c.srv.store().ReplLog() != log {
			return // store swapped under us (this node became a replica)
		}
		wake := log.Wait() // taken before the scan: appends during it re-wake
		sent := false
		for w := 0; w < log.Workers(); w++ {
			recs, err := log.Since(w, cursors[w])
			if err != nil {
				return // pinned cursors cannot hole; treat as fatal anyway
			}
			for _, rec := range recs {
				f := repl.Frame{Kind: repl.FrameData, Worker: uint32(w), GSN: rec.GSN, Payload: rec.Payload}
				if err := repl.WriteFrame(bw, f); err != nil {
					return
				}
				cursors[w] = rec.GSN
				sent = true
			}
		}
		if flush() != nil {
			return
		}
		if sent {
			continue
		}
		select {
		case <-wake:
		case <-time.After(replHeartbeatInterval):
			hb := repl.Frame{Kind: repl.FrameHeartbeat, Payload: repl.EncodeCursors(log.LastGSN())}
			if repl.WriteFrame(bw, hb) != nil || flush() != nil {
				return
			}
		case <-stop:
			return
		case <-c.srv.drainCh:
			return
		}
	}
}

// execReplicaOf implements REPLICAOF <host> <port> / REPLICAOF NO ONE.
func (c *conn) execReplicaOf(cmd [][]byte) {
	if len(cmd) != 3 {
		c.argErr("replicaof")
		return
	}
	host, port := string(cmd[1]), string(cmd[2])
	if strings.EqualFold(host, "no") && strings.EqualFold(port, "one") {
		c.srv.repl.stopReplica()
		c.wr.WriteSimple("OK")
		return
	}
	if _, err := strconv.ParseUint(port, 10, 16); err != nil {
		c.wr.WriteError("ERR invalid port")
		return
	}
	if err := c.srv.repl.startReplica(net.JoinHostPort(host, port)); err != nil {
		c.wr.WriteError("ERR " + err.Error())
		return
	}
	c.wr.WriteSimple("OK")
}

// ---------------------------------------------------------------------------
// Replica side: the managed sync loop
// ---------------------------------------------------------------------------

// replicaMgr follows one primary: PSYNC handshake, full-sync restore
// when needed, stream apply, acks, cursor persistence, reconnect with
// capped backoff.
type replicaMgr struct {
	srv  *Server
	rs   *replState
	addr string

	stop    chan struct{}
	done    chan struct{}
	stopped atomic.Bool

	mu        sync.Mutex
	nc        net.Conn // current link (closed by halt to unblock reads)
	status    string   // connecting | syncing | up | down
	replid    string   // lineage the cursors are valid against
	cursors   []uint64 // per-worker applied cursors
	masterGSN []uint64 // primary watermarks from the last heartbeat
	lastErr   string
	recvSeq   int64
}

func (m *replicaMgr) halt() {
	if m.stopped.Swap(true) {
		<-m.done
		return
	}
	close(m.stop)
	m.mu.Lock()
	if m.nc != nil {
		m.nc.Close()
	}
	m.mu.Unlock()
	<-m.done
}

func (m *replicaMgr) setConn(nc net.Conn) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.stopped.Load() {
		return false
	}
	m.nc = nc
	return true
}

func (m *replicaMgr) setStatus(status string, err error) {
	m.mu.Lock()
	m.status = status
	if err != nil {
		m.lastErr = err.Error()
	}
	if status == "down" {
		// The primary's watermarks are only trustworthy while the link
		// that delivered them lives: the next link's heartbeat must
		// re-establish them before INFO may report a concrete lag.
		m.masterGSN = nil
	}
	m.mu.Unlock()
}

func (m *replicaMgr) run() {
	defer close(m.done)
	backoff := 50 * time.Millisecond
	for {
		if m.stopped.Load() {
			return
		}
		madeProgress, err := m.syncOnce()
		if m.stopped.Load() {
			return
		}
		m.setStatus("down", err)
		if err != nil {
			m.srv.cfg.Logf("p2kvs-server: replication link to %s: %v", m.addr, err)
		}
		if madeProgress {
			backoff = 50 * time.Millisecond
		}
		select {
		case <-m.stop:
			return
		case <-time.After(backoff):
		}
		if backoff *= 2; backoff > 2*time.Second {
			backoff = 2 * time.Second
		}
	}
}

// syncOnce runs one connection's lifetime: handshake, optional full
// sync, then the apply loop until the link breaks. madeProgress reports
// whether the handshake completed (resets the reconnect backoff).
func (m *replicaMgr) syncOnce() (madeProgress bool, err error) {
	m.setStatus("connecting", nil)
	nc, err := net.DialTimeout("tcp", m.addr, replDialTimeout)
	if err != nil {
		return false, err
	}
	defer nc.Close()
	if !m.setConn(nc) {
		return false, nil
	}
	defer m.setConn(nil)
	rd, wr := NewReader(nc), NewWriter(nc)

	replid, cursors := m.lineage()
	args := [][]byte{[]byte("PSYNC"), []byte(replid)}
	for _, cur := range cursors {
		args = append(args, []byte(strconv.FormatUint(cur, 10)))
	}
	wr.WriteCommand(args...)
	if err := wr.Flush(); err != nil {
		return false, err
	}
	nc.SetReadDeadline(time.Now().Add(replHandshakeTimeout))
	rep, err := rd.ReadReply()
	if err != nil {
		return false, err
	}
	if rep.IsError() {
		return false, fmt.Errorf("primary refused PSYNC: %s", rep.Str)
	}
	fields := strings.Fields(string(rep.Str))
	switch {
	case len(fields) == 2 && fields[0] == "CONTINUE":
		m.rs.partialSyncsDone.Add(1)
		m.setLineage(fields[1], cursors)
	case len(fields) == 3 && fields[0] == "FULLSYNC":
		m.setStatus("syncing", nil)
		if err := m.receiveFullSync(nc, rd); err != nil {
			return true, fmt.Errorf("full sync: %w", err)
		}
		m.rs.fullSyncsDone.Add(1)
		m.srv.cfg.Logf("p2kvs-server: full sync from %s complete", m.addr)
	default:
		return false, fmt.Errorf("unexpected PSYNC reply %q", rep.Str)
	}
	m.setStatus("up", nil)
	return true, m.applyStream(nc, rd)
}

// receiveFullSync downloads the checkpoint image into a fresh staging
// directory and installs it as the serving store.
func (m *replicaMgr) receiveFullSync(nc net.Conn, rd *Reader) error {
	cfg := m.srv.cfg
	fs := cfg.replFS()
	m.mu.Lock()
	m.recvSeq++
	dir := fmt.Sprintf("%s/recv-%d", cfg.ReplDir, m.recvSeq)
	m.mu.Unlock()
	if err := fs.MkdirAll(dir); err != nil {
		return err
	}
	for {
		nc.SetReadDeadline(time.Now().Add(replReadTimeout))
		f, err := repl.ReadFrame(rd.br)
		if err != nil {
			return err
		}
		switch f.Kind {
		case repl.FrameFile:
			name, content, err := repl.DecodeFile(f.Payload)
			if err != nil {
				return err
			}
			// A hostile FrameFile name must not escape the staging directory.
			if !checkpoint.SafeRel(name) {
				return fmt.Errorf("unsafe image path %q", name)
			}
			if err := writeImageFile(fs, dir, name, content); err != nil {
				return err
			}
		case repl.FrameManifest:
			man, err := checkpoint.Parse(f.Payload)
			if err != nil {
				return err
			}
			if err := vfs.WriteFile(fs, dir+"/"+checkpoint.ManifestName, f.Payload); err != nil {
				return err
			}
			return m.installImage(fs, dir, man)
		default:
			return fmt.Errorf("unexpected frame kind %d during full sync", f.Kind)
		}
	}
}

// installImage swaps the received image in as the serving store. Order
// matters for crash safety: the cursor state is cleared first (a crash
// mid-install then redoes the full sync instead of resuming into a
// hole), the old store is closed (releasing its directory so a
// host-filesystem RestoreStore may rebuild it in place), then the new
// store is opened and swapped in, and only then is the new lineage
// persisted.
func (m *replicaMgr) installImage(fs vfs.FS, dir string, man *checkpoint.Manifest) error {
	m.clearState()
	old := m.srv.store()
	old.Close()
	st, err := m.srv.cfg.RestoreStore(fs, dir)
	if err != nil {
		// The old store is closed: commands fail with -SHUTDOWN until a
		// retried full sync succeeds. Loud and recoverable beats serving
		// a half-installed image.
		return err
	}
	if st.ReplLog() == nil {
		st.Close()
		return errors.New("RestoreStore returned a store without a replication backlog")
	}
	m.srv.storeP.Store(st)
	m.setLineage(man.ReplID, append([]uint64(nil), man.WorkerGSN...))
	m.persistState()
	// The staging image is consumed. Best effort: a leftover costs disk,
	// never correctness.
	_ = vfs.RemoveTree(fs, dir)
	return nil
}

// applyStream is the replica's steady state: apply data frames through
// the engine write path, track primary watermarks from heartbeats, and
// acknowledge applied cursors (persisting them) on every heartbeat and
// at least every replAckInterval under load.
func (m *replicaMgr) applyStream(nc net.Conn, rd *Reader) error {
	var lastAck time.Time
	ackNow := func() error {
		f := repl.Frame{Kind: repl.FrameAck, Payload: repl.EncodeCursors(m.snapshotCursors())}
		nc.SetWriteDeadline(time.Now().Add(replWriteTimeout))
		err := repl.WriteFrame(nc, f)
		nc.SetWriteDeadline(time.Time{})
		if err != nil {
			return err
		}
		m.persistState()
		lastAck = time.Now()
		return nil
	}
	if err := ackNow(); err != nil {
		return err
	}
	for {
		if m.stopped.Load() {
			return nil
		}
		nc.SetReadDeadline(time.Now().Add(replReadTimeout))
		f, err := repl.ReadFrame(rd.br)
		if err != nil {
			return err
		}
		switch f.Kind {
		case repl.FrameData:
			ops, err := repl.DecodeOps(f.Payload)
			if err != nil {
				return err
			}
			if err := m.srv.store().ApplyRepl(int(f.Worker), f.GSN, ops); err != nil {
				return err
			}
			m.advanceCursor(int(f.Worker), f.GSN)
			if time.Since(lastAck) >= replAckInterval {
				if err := ackNow(); err != nil {
					return err
				}
			}
		case repl.FrameHeartbeat:
			curs, err := repl.DecodeCursors(f.Payload)
			if err != nil {
				return err
			}
			m.mu.Lock()
			m.masterGSN = curs
			m.mu.Unlock()
			if err := ackNow(); err != nil {
				return err
			}
		default:
			return fmt.Errorf("unexpected frame kind %d in stream", f.Kind)
		}
	}
}

// lineage returns the PSYNC identity to resume from ("?" = none: the
// primary decides, and will answer with a full sync).
func (m *replicaMgr) lineage() (string, []uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.replid == "" || len(m.cursors) == 0 {
		return "?", nil
	}
	return m.replid, append([]uint64(nil), m.cursors...)
}

func (m *replicaMgr) setLineage(replid string, cursors []uint64) {
	m.mu.Lock()
	m.replid = replid
	m.cursors = cursors
	m.mu.Unlock()
}

func (m *replicaMgr) snapshotCursors() []uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]uint64(nil), m.cursors...)
}

func (m *replicaMgr) advanceCursor(worker int, gsn uint64) {
	m.mu.Lock()
	if worker < len(m.cursors) && gsn > m.cursors[worker] {
		m.cursors[worker] = gsn
	} else if worker >= len(m.cursors) {
		grown := make([]uint64, worker+1)
		copy(grown, m.cursors)
		grown[worker] = gsn
		m.cursors = grown
	}
	m.mu.Unlock()
}

// --- cursor state persistence -------------------------------------------

// cursorState is REPLSTATE, the file a replica keeps so a process restart
// can resume the stream with a partial sync instead of a full one: the
// lineage the cursors are meaningful against and the per-worker applied
// cursors, sealed (vfs.Seal) so a torn or damaged file degrades to "no
// state" (→ full sync), never to a wrong cursor.
//
// The cursors are persisted only after the records they cover were
// applied, so they never run ahead of the replica's applies. Whether they
// can run ahead of its *durable* data is the engine WAL policy's call:
// under SyncOnCommit the apply ack implies fsync, so a SIGKILL cannot
// leave persisted cursors pointing past durable state; under weaker
// policies a crash may lose the applied tail, and the resumed stream
// starts past it — the same durability trade the engine itself makes for
// local writes.
type cursorState struct {
	ReplID  string   `json:"replid"`
	Cursors []uint64 `json:"cursors"`
}

func (m *replicaMgr) statePath() string { return m.srv.cfg.ReplDir + "/" + replStateName }

// loadState primes the lineage from the persisted cursor state, if any;
// anything unreadable degrades to "no lineage" (→ full sync).
func (m *replicaMgr) loadState() {
	fs := m.srv.cfg.replFS()
	data, err := vfs.ReadFile(fs, m.statePath())
	if err != nil {
		return
	}
	var st cursorState
	if err := vfs.Unseal(data, &st); err != nil {
		m.srv.cfg.Logf("p2kvs-server: ignoring %s: %v", replStateName, err)
		return
	}
	m.setLineage(st.ReplID, st.Cursors)
}

// persistState writes the cursor state atomically. Best effort: a
// failure only costs a full sync after the next process restart.
func (m *replicaMgr) persistState() {
	replid, cursors := m.lineage()
	if replid == "?" {
		return
	}
	fs := m.srv.cfg.replFS()
	data, err := vfs.Seal(cursorState{ReplID: replid, Cursors: cursors})
	if err == nil {
		err = fs.MkdirAll(m.srv.cfg.ReplDir)
	}
	if err == nil {
		err = vfs.WriteFileAtomic(fs, m.statePath(), data)
	}
	if err != nil {
		m.srv.cfg.Logf("p2kvs-server: persisting %s: %v", replStateName, err)
	}
}

// clearState removes the cursor state before a full-sync install.
func (m *replicaMgr) clearState() {
	fs := m.srv.cfg.replFS()
	if fs.Exists(m.statePath()) {
		fs.Remove(m.statePath())
	}
}

// --- image staging helpers ----------------------------------------------

func writeImageFile(fs vfs.FS, root, name string, content []byte) error {
	if i := strings.LastIndexByte(name, '/'); i >= 0 {
		if err := fs.MkdirAll(root + "/" + name[:i]); err != nil {
			return err
		}
	}
	return vfs.WriteFile(fs, root+"/"+name, content)
}

// ---------------------------------------------------------------------------
// INFO
// ---------------------------------------------------------------------------

// infoSection renders the body of INFO's "# Replication" section: the
// backlog counters from the store snapshot, the sync counters from the
// server's, and by hand what is computed under the link locks.
func (rs *replState) infoSection(b *strings.Builder, st *core.Store, snap *core.StatsSnapshot, sv *snapshot) {
	mgr := rs.manager()
	role := "master"
	if mgr != nil {
		role = "replica"
	}
	fmt.Fprintf(b, "role:%s\r\n", role)
	log := st.ReplLog()
	if log == nil {
		fmt.Fprintf(b, "repl_enabled:0\r\n")
		return
	}
	fmt.Fprintf(b, "repl_enabled:1\r\nrepl_id:%s\r\n", log.ID())
	stats.Lines(b, snap, "", "Replication")
	stats.Lines(b, sv, "", "Replication")

	rs.mu.Lock()
	links := make([]*replLink, 0, len(rs.links))
	for _, l := range rs.links {
		links = append(links, l)
	}
	rs.mu.Unlock()
	fmt.Fprintf(b, "connected_replicas:%d\r\n", len(links))
	last := log.LastGSN()
	for i, l := range links {
		ack, lastAck, full := l.snapshot()
		var lag uint64
		for w := 0; w < len(last) && w < len(ack); w++ {
			lag += maxLag(last[w], ack[w])
		}
		kind := "partial"
		if full {
			kind = "full"
		}
		ago := int64(-1)
		if !lastAck.IsZero() {
			ago = int64(time.Since(lastAck).Milliseconds())
		}
		fmt.Fprintf(b, "replica%d:addr=%s,sync=%s,lag_gsn=%d,last_ack_ms=%d\r\n", i, l.addr, kind, lag, ago)
	}
	var lastErr string
	if mgr != nil {
		mgr.mu.Lock()
		status := mgr.status
		lastErr = mgr.lastErr
		cursors := append([]uint64(nil), mgr.cursors...)
		master := append([]uint64(nil), mgr.masterGSN...)
		addr := mgr.addr
		mgr.mu.Unlock()
		host, port, _ := net.SplitHostPort(addr)
		fmt.Fprintf(b, "master_host:%s\r\nmaster_port:%s\r\nmaster_link_status:%s\r\n", host, port, status)
		// Until the first heartbeat delivers the primary's watermarks the
		// lag is unknown, not zero: a resync may still be replaying. -1
		// keeps pollers waiting instead of declaring convergence early.
		if len(master) == 0 {
			fmt.Fprintf(b, "replica_lag_gsn:-1\r\n")
		} else {
			var lag uint64
			for w := 0; w < len(master) && w < len(cursors); w++ {
				lag += maxLag(master[w], cursors[w])
				fmt.Fprintf(b, "replica_lag_worker_%d:%d\r\n", w, maxLag(master[w], cursors[w]))
			}
			fmt.Fprintf(b, "replica_lag_gsn:%d\r\n", lag)
		}
	}
	stats.Lines(b, sv, "", "Replica")
	if lastErr != "" {
		fmt.Fprintf(b, "master_link_last_error:%s\r\n", strings.ReplaceAll(lastErr, "\r\n", " "))
	}
}

func maxLag(master, cursor uint64) uint64 {
	if master > cursor {
		return master - cursor
	}
	return 0
}
