package server

import (
	"context"
	"errors"
	"net"
	"slices"
	"strconv"
	"strings"
	"time"

	"p2kvs/internal/kv"
	"p2kvs/internal/stats"
	"p2kvs/internal/vfs"
)

// conn serves one client connection.
type conn struct {
	srv *Server
	nc  net.Conn
	rd  *Reader
	wr  *Writer

	// win is the arena the current pipeline window is read and run in.
	win window
	// orphans is set when a store call of this window failed: it may have
	// returned before all its legs completed (today, a deadline under
	// CommandTimeout), and a leg still queued or executing may alias win,
	// so the next window starts on a fresh one.
	orphans bool

	// closing is set by QUIT / SHUTDOWN to end the session after the
	// current window's replies are flushed.
	closing bool
}

// window is a connection's arena for one pipeline window: its commands,
// their argument headers and bytes, the keys of a read run and the batch and
// per-command errors of a write run. Everything in it lives until the next
// window, which truncates and reuses it — after a window with orphans, or
// one that grew it past maxWindowBytes or maxWindowArgs, the next starts on
// a fresh arena and leaves the old one to the garbage collector.
type window struct {
	cmdArena
	cmds  [][][]byte
	keys  [][]byte
	batch kv.Batch
	errs  []error
}

// maxWindowBytes and maxWindowArgs bound the argument bytes and headers a
// connection keeps between windows: one huge command does not pin its
// buffers for the connection's life.
const (
	maxWindowBytes = 1 << 20
	maxWindowArgs  = 16 << 10
)

func newConn(s *Server, nc net.Conn) *conn {
	return &conn{srv: s, nc: nc, rd: NewReader(nc), wr: NewWriter(nc)}
}

// beginDrain unblocks a connection parked in its blocking first read so
// the drain can proceed; a connection mid-window keeps running until its
// replies are flushed.
func (c *conn) beginDrain() {
	c.nc.SetReadDeadline(time.Now())
}

// serve is the connection loop: read one pipeline window (first command
// blocking, then everything already buffered), process it run by run, flush
// all replies, repeat. During a drain the loop exits between windows —
// never between a command and its reply.
func (c *conn) serve() {
	defer c.nc.Close()
	for {
		if c.srv.draining.Load() {
			return
		}
		cmds, rerr := c.readWindow()
		if len(cmds) > 0 {
			c.srv.stats.pipelines.Add(1)
			c.srv.stats.commands.Add(int64(len(cmds)))
			c.processWindow(cmds)
			if c.flush() != nil || c.closing {
				return
			}
		}
		if rerr != nil {
			var perr ProtocolError
			if errors.As(rerr, &perr) {
				c.srv.stats.protoErrors.Add(1)
				c.wr.WriteError("ERR Protocol error: " + perr.Error())
				c.flush()
			}
			// EOF, read-deadline expiry from beginDrain, or a hard
			// network error: nothing more to reply to, close.
			return
		}
	}
}

// maxPipeline caps how many pipelined commands are drained per read window
// before replies are flushed. It also bounds the commands of a read or
// write run.
const maxPipeline = 128

// readWindow reads the client's current pipeline into c.win: one blocking
// command, then every command already sitting in the read buffer, capped at
// maxPipeline. Returning both commands and an error is valid — the
// complete commands are processed (and answered) before the error closes
// the connection.
func (c *conn) readWindow() ([][][]byte, error) {
	w := &c.win
	if c.orphans || cap(w.buf) > maxWindowBytes || cap(w.args) > maxWindowArgs {
		*w, c.orphans = window{}, false
	}
	w.args, w.buf, w.cmds = w.args[:0], w.buf[:0], w.cmds[:0]
	if t := c.srv.cfg.ConnIdleTimeout; t > 0 {
		c.nc.SetReadDeadline(time.Now().Add(t))
		// Shutdown sets draining, then kicks. Checking the flag only after
		// arming closes the race: a kick that landed before the line above
		// was overwritten by it, and is redone here; one that lands later
		// overwrites the idle deadline itself.
		if c.srv.draining.Load() {
			c.beginDrain()
		}
	}
	first, err := c.rd.readCommand(&w.cmdArena)
	if err != nil {
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() && !c.srv.draining.Load() {
			// Idle expiry, not the drain kick from beginDrain.
			c.srv.stats.idleClosed.Add(1)
		}
		return nil, err
	}
	w.cmds = append(w.cmds, first)
	for len(w.cmds) < maxPipeline && c.rd.Buffered() > 0 {
		cmd, err := c.rd.readCommand(&w.cmdArena)
		if err != nil {
			return w.cmds, err
		}
		w.cmds = append(w.cmds, cmd)
	}
	return w.cmds, nil
}

// flush writes out every buffered reply, bounded by cfg.WriteTimeout: a
// client that stops reading is disconnected (the deadline fails the
// flush and serve returns) instead of wedging this goroutine forever.
func (c *conn) flush() error {
	if t := c.srv.cfg.WriteTimeout; t > 0 {
		c.nc.SetWriteDeadline(time.Now().Add(t))
		defer c.nc.SetWriteDeadline(time.Time{})
	}
	return c.wr.Flush()
}

// verbs are the commands the server knows.
var verbs = [...]string{"GET", "SET", "DEL", "MGET", "MSET", "SCAN", "PING", "INFO", "BGSAVE", "RESHARD",
	"SCRUB", "PSYNC", "REPLICAOF", "LASTSAVE", "COMMAND", "SELECT", "QUIT", "SHUTDOWN"}

// cmdName returns the command's verb, matched in any case without
// converting it, or "" for a command the server does not know.
func cmdName(cmd [][]byte) string {
	for _, v := range verbs {
		if foldEqual(cmd[0], v) {
			return v
		}
	}
	return ""
}

// foldEqual reports whether b spells word, an upper-case ASCII word, in any
// case.
func foldEqual(b []byte, word string) bool {
	if len(b) != len(word) {
		return false
	}
	for i := range b {
		if b[i]&^0x20 != word[i] {
			return false
		}
	}
	return true
}

// kind sorts a command for processWindow: 'r' for a point read (GET k,
// MGET k…), 'w' for a write that names one key (SET k v, MSET k v, DEL k),
// 'W' for one that names several (MSET k v k v…, DEL k k…), 0 for anything
// else — any of those five verbs at a wrong arity included, left to execOne
// to refuse.
func kind(cmd [][]byte) byte {
	switch n := len(cmd); cmdName(cmd) {
	case "GET":
		if n == 2 {
			return 'r'
		}
	case "MGET":
		if n >= 2 {
			return 'r'
		}
	case "SET":
		if n == 3 {
			return 'w'
		}
	case "MSET":
		if n == 3 {
			return 'w'
		}
		if n > 3 && n%2 == 1 {
			return 'W'
		}
	case "DEL":
		if n == 2 {
			return 'w'
		}
		if n > 2 {
			return 'W'
		}
	}
	return 0
}

// processWindow executes one pipeline window in order. A maximal stretch of
// point reads becomes one store read and a stretch of single-key writes one
// batch of per-shard writes — the paper's OBM merge by request type
// (Algorithm 1), moved to the network layer: instead of hoping requests pile
// up in the worker queues, a pipelining client hands us the batch boundary
// explicitly. A multi-key write is a run of its own. Replies keep the
// one-reply-per-command contract, in order.
func (c *conn) processWindow(cmds [][][]byte) {
	for i := 0; i < len(cmds) && !c.closing; {
		k, j := kind(cmds[i]), i+1
		for (k == 'r' || k == 'w') && j < len(cmds) && kind(cmds[j]) == k {
			j++
		}
		switch k {
		case 'r':
			c.execReads(cmds[i:j])
		case 'w', 'W':
			c.execWrites(cmds[i:j])
		default:
			c.execOne(cmds[i])
		}
		i = j
	}
}

// cmdCtx builds the context of one store call — a command's, or a run's —
// from the server's CommandTimeout.
func (c *conn) cmdCtx() (context.Context, context.CancelFunc) {
	if t := c.srv.cfg.CommandTimeout; t > 0 {
		return context.WithTimeout(context.Background(), t)
	}
	return context.Background(), func() {}
}

// writeStoreErr maps store errors onto RESP error classes: admission
// control → -LOADSHED (retry after backoff), deadline expiry → -TIMEOUT,
// at-rest corruption → -CORRUPTION (restore from backup / run SCRUB),
// degraded shard → -READONLY (with a distinct "disk full" detail when the
// cause is space exhaustion — that variant self-heals once space frees),
// closed store → -SHUTDOWN.
func (c *conn) writeStoreErr(err error) {
	c.orphans = true
	switch {
	// Checked before ErrOverloaded: under AdmitReject a degraded shard's
	// error is wrapped in ErrOverloaded too, and "disk full, retry later /
	// free space" is the more actionable diagnosis. Matched on the space
	// cause alone so the very first failing write — which carries raw
	// ENOSPC, before the shard has flipped to degraded — gets the same
	// reply as every later one.
	case vfs.IsNoSpace(err):
		c.wr.WriteError("READONLY disk full: " + err.Error())
	// Also before ErrOverloaded/ErrDegraded: a corruption-degraded shard's
	// error matches those classes too, but "this data is damaged" is the
	// diagnosis the client needs — retrying will not help.
	case errors.Is(err, kv.ErrCorruption):
		c.srv.stats.corruptionReplies.Add(1)
		c.wr.WriteError("CORRUPTION " + err.Error())
	case errors.Is(err, kv.ErrOverloaded):
		c.srv.stats.loadshed.Add(1)
		c.wr.WriteError("LOADSHED " + err.Error())
	case errors.Is(err, kv.ErrDeadlineExceeded):
		c.srv.stats.timeouts.Add(1)
		c.wr.WriteError("TIMEOUT " + err.Error())
	case errors.Is(err, kv.ErrDegraded):
		c.wr.WriteError("READONLY " + err.Error())
	case errors.Is(err, kv.ErrClosed):
		c.wr.WriteError("SHUTDOWN " + err.Error())
	default:
		c.wr.WriteError("ERR " + err.Error())
	}
}

// execReads answers a run of GETs and MGETs with one store read: a lone key
// takes GetCtx, which may read the engine directly; more take MultiGetCtx,
// whose per-shard legs OBM merges into engine multigets. Each command's
// replies are sliced out of the one result, and a failed read fails them
// all.
func (c *conn) execReads(run [][][]byte) {
	start := time.Now()
	keys := c.win.keys[:0]
	for _, cmd := range run {
		keys = append(keys, cmd[1:]...)
	}
	c.win.keys = keys
	ctx, cancel := c.cmdCtx()
	var (
		one  [1][]byte
		vals = one[:]
		err  error
	)
	if len(keys) == 1 {
		one[0], err = c.srv.store().GetCtx(ctx, keys[0])
		if errors.Is(err, kv.ErrNotFound) {
			err = nil
		}
	} else if vals, err = c.srv.store().MultiGetCtx(ctx, keys); err == nil {
		c.srv.stats.coalescedGets.Add(int64(len(keys)))
	}
	cancel()
	elapsed := time.Since(start)
	for _, cmd := range run {
		switch n := len(cmd) - 1; {
		case err != nil:
			c.writeStoreErr(err)
		case foldEqual(cmd[0], "GET"):
			c.wr.WriteBulk(vals[0])
			vals = vals[1:]
		default:
			c.wr.WriteArrayHeader(n)
			for _, v := range vals[:n] {
				c.wr.WriteBulk(v)
			}
			vals = vals[n:]
		}
		c.srv.stats.latFor(cmdName(cmd)).Record(elapsed)
	}
}

// execWrites commits a write run, its batch built in the window arena. A
// lone command — a multi-key MSET or DEL among them — is one WriteCtx, as
// atomic as Redis makes one command. A run of single-key SETs and DELs is
// one WriteEachCtx: one worker request (and one engine WriteBatch) per
// shard touched instead of one per command, each shard's committing on its
// own. A pipeline promises order, not atomicity: each command replies with
// its own shard's outcome, and the run is done before the next one starts.
// A DEL replies with the number of keys it submitted (p2KVS deletes are
// blind — existence is not checked, a documented deviation from Redis'
// deleted-count).
func (c *conn) execWrites(run [][][]byte) {
	if c.rejectIfReplica(len(run)) {
		return
	}
	start := time.Now()
	b := &c.win.batch
	b.Reset()
	for _, cmd := range run {
		if foldEqual(cmd[0], "DEL") {
			for _, k := range cmd[1:] {
				b.Delete(k)
			}
			continue
		}
		for i := 1; i < len(cmd); i += 2 {
			b.Put(cmd[i], cmd[i+1])
		}
	}
	errs := slices.Grow(c.win.errs[:0], len(run))[:len(run)]
	c.win.errs = errs
	ctx, cancel := c.cmdCtx()
	if len(run) == 1 {
		errs[0] = c.srv.store().WriteCtx(ctx, b)
	} else {
		c.srv.store().WriteEachCtx(ctx, b, errs)
	}
	cancel()
	elapsed := time.Since(start)
	var committed int64
	for i, cmd := range run {
		switch {
		case errs[i] != nil:
			c.writeStoreErr(errs[i])
		case foldEqual(cmd[0], "DEL"):
			c.wr.WriteInt(int64(len(cmd) - 1))
			committed += int64(len(cmd) - 1)
		default:
			c.wr.WriteSimple("OK")
			committed += int64(len(cmd) / 2)
		}
		c.srv.stats.latFor(cmdName(cmd)).Record(elapsed)
	}
	if b.Len() > 1 {
		c.srv.stats.coalescedSets.Add(committed)
	}
}

// execOne dispatches a command that is neither a point read nor a point
// write.
func (c *conn) execOne(cmd [][]byte) {
	name := cmdName(cmd)
	start := time.Now()
	switch name {
	case "PING":
		if len(cmd) > 1 {
			c.wr.WriteBulk(cmd[1])
		} else {
			c.wr.WriteSimple("PONG")
		}
	case "GET", "SET", "DEL", "MGET", "MSET":
		// processWindow runs every well-formed one; this is the rest.
		// Redis SET options (EX/NX/...) are not supported: they are
		// refused loudly rather than silently ignored.
		c.argErr(strings.ToLower(name))
	case "SCAN":
		c.execScan(cmd)
	case "INFO":
		c.wr.WriteBulkString(c.srv.infoText())
	case "BGSAVE":
		c.execBgsave()
	case "RESHARD":
		c.execReshard(cmd)
	case "SCRUB":
		c.execScrub()
	case "PSYNC":
		c.execPsync(cmd)
	case "REPLICAOF":
		c.execReplicaOf(cmd)
	case "LASTSAVE":
		c.wr.WriteInt(c.srv.store().StatsSnapshot().LastCheckpointUnix)
	case "COMMAND":
		// redis-cli handshake: an empty reply keeps it happy.
		c.wr.WriteArrayHeader(0)
	case "SELECT":
		// Single keyspace; accept and ignore.
		c.wr.WriteSimple("OK")
	case "QUIT":
		c.wr.WriteSimple("OK")
		c.closing = true
	case "SHUTDOWN":
		// Acknowledge, then hand the drain to the process owner
		// listening on ShutdownSignal. The reply is flushed before the
		// connection closes, so the client sees the acknowledgement.
		c.wr.WriteSimple("OK")
		c.closing = true
		c.srv.signalShutdown()
	default:
		c.srv.stats.unknown.Add(1)
		c.wr.WriteError("ERR unknown command '" + string(cmd[0]) + "'")
	}
	c.srv.stats.latFor(name).Record(time.Since(start))
}

// execBgsave starts a background checkpoint into the configured backup
// directory, mirroring Redis BGSAVE semantics: the reply acknowledges the
// start, LASTSAVE (and INFO's store_last_checkpoint_unix) report the
// completion.
func (c *conn) execBgsave() {
	if c.srv.cfg.CheckpointDir == "" {
		c.wr.WriteError("ERR BGSAVE disabled: server started without a checkpoint directory")
		return
	}
	if !c.srv.bgsave() {
		c.wr.WriteError("ERR Background save already in progress")
		return
	}
	c.wr.WriteSimple("Background saving started")
}

// execReshard handles RESHARD <N> (start an online reshard to N workers
// in the background, BGSAVE-style) and RESHARD STATUS (report the
// current or last run's counters). The acknowledgement means the
// reshard started; completion is observable via RESHARD STATUS's
// reshard_completed / reshard_state fields, or INFO's # Reshard section.
func (c *conn) execReshard(cmd [][]byte) {
	if len(cmd) != 2 {
		c.argErr("reshard")
		return
	}
	if foldEqual(cmd[1], "STATUS") {
		var b strings.Builder
		stats.Lines(&b, c.srv.snapshot(), "", "Reshard")
		stats.Lines(&b, c.srv.store().ReshardStats(), "", "")
		c.wr.WriteBulkString(b.String())
		return
	}
	n, err := strconv.Atoi(string(cmd[1]))
	if err != nil || n < 1 {
		c.wr.WriteError("ERR RESHARD needs a worker count >= 1 or STATUS")
		return
	}
	store := c.srv.store()
	if !store.Elastic() {
		c.wr.WriteError("ERR RESHARD unsupported: server started without -elastic")
		return
	}
	if n == store.Workers() {
		c.wr.WriteSimple("OK already at " + strconv.Itoa(n) + " workers")
		return
	}
	if c.srv.repl.isReplica() {
		c.wr.WriteError("READONLY replica: RESHARD must go to the primary")
		return
	}
	if !c.srv.reshard(n) {
		c.wr.WriteError("ERR Reshard already in progress")
		return
	}
	c.wr.WriteSimple("Background resharding started")
}

// execScrub runs one synchronous, unthrottled integrity pass over every
// worker engine and reports what it covered — the on-demand counterpart of
// the background scrubber (-scrub_interval). Corruption found is
// quarantined/repaired as a side effect, exactly as if a foreground read
// had hit it; the command itself fails only on infrastructure errors.
func (c *conn) execScrub() {
	ctx, cancel := c.cmdCtx()
	res, err := c.srv.store().Scrub(ctx, nil)
	cancel()
	if err != nil {
		c.writeStoreErr(err)
		return
	}
	var b strings.Builder
	stats.Lines(&b, res, "scrub_", "")
	c.wr.WriteBulkString(b.String())
}

// rejectIfReplica enforces replica read-only mode: while the server
// follows a primary, every client write is refused before it reaches
// the store — replicated applies take the Store.ApplyRepl path instead,
// which this guard never sees. Checked ahead of admission control so a
// misdirected writer gets the authoritative "-READONLY replica" rather
// than a retryable -LOADSHED. Returns true (after writing n identical
// error replies, one per command of the write run) if rejected.
func (c *conn) rejectIfReplica(n int) bool {
	if !c.srv.repl.isReplica() {
		return false
	}
	for i := 0; i < n; i++ {
		c.wr.WriteError("READONLY replica: writes must go to the primary")
	}
	return true
}

func (c *conn) argErr(name string) {
	c.wr.WriteError("ERR wrong number of arguments for '" + name + "' command")
}

// execScan implements a keyspace walk in the shape of Redis SCAN:
// "SCAN cursor [COUNT n]". The cursor is positional — "0" starts from the
// smallest key, any other cursor resumes at the first key >= cursor, and
// the reply's next-cursor is (last returned key + 0x00), or "0" when the
// keyspace is exhausted. Guarantees every key present for the whole walk
// is returned exactly once.
func (c *conn) execScan(cmd [][]byte) {
	if len(cmd) != 2 && len(cmd) != 4 {
		c.argErr("scan")
		return
	}
	count := 10
	if len(cmd) == 4 {
		if !foldEqual(cmd[2], "COUNT") {
			c.wr.WriteError("ERR syntax error")
			return
		}
		n, err := parseInt(cmd[3])
		if err != nil || n <= 0 || n > 10000 {
			c.wr.WriteError("ERR COUNT must be in 1..10000")
			return
		}
		count = int(n)
	}
	var start []byte
	if string(cmd[1]) != "0" {
		start = cmd[1]
	}
	ctx, cancel := c.cmdCtx()
	pairs, err := c.srv.store().ScanCtx(ctx, start, count)
	cancel()
	if err != nil {
		c.writeStoreErr(err)
		return
	}
	next := []byte("0")
	if len(pairs) == count {
		last := pairs[len(pairs)-1].Key
		next = make([]byte, len(last)+1)
		copy(next, last)
	}
	c.wr.WriteArrayHeader(2)
	c.wr.WriteBulk(next)
	c.wr.WriteArrayHeader(len(pairs))
	for _, p := range pairs {
		c.wr.WriteBulk(p.Key)
	}
}
