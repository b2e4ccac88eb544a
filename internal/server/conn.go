package server

import (
	"context"
	"errors"
	"net"
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

	// closing is set by QUIT / SHUTDOWN to end the session after the
	// current window's replies are flushed.
	closing bool
}

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
// blocking, then everything already buffered), process it with run
// coalescing, flush all replies, repeat. During a drain the loop exits
// between windows — never between a command and its reply.
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
// before replies are flushed. It also bounds the size of a coalesced SET/GET
// run.
const maxPipeline = 128

// readWindow reads the client's current pipeline: one blocking command,
// then every command already sitting in the read buffer, capped at
// maxPipeline. Returning both commands and an error is valid — the
// complete commands are processed (and answered) before the error closes
// the connection.
func (c *conn) readWindow() ([][][]byte, error) {
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
	first, err := c.rd.ReadCommand()
	if err != nil {
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() && !c.srv.draining.Load() {
			// Idle expiry, not the drain kick from beginDrain.
			c.srv.stats.idleClosed.Add(1)
		}
		return nil, err
	}
	cmds := [][][]byte{first}
	for len(cmds) < maxPipeline && c.rd.Buffered() > 0 {
		cmd, err := c.rd.ReadCommand()
		if err != nil {
			return cmds, err
		}
		cmds = append(cmds, cmd)
	}
	return cmds, nil
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

// cmdName returns the upper-cased command verb.
func cmdName(cmd [][]byte) string {
	return strings.ToUpper(string(cmd[0]))
}

// runEnd extends a coalescible run: the longest stretch of commands from
// i that share the verb name and exact arity.
func runEnd(cmds [][][]byte, i int, name string, arity int) int {
	j := i
	for j < len(cmds) && len(cmds[j]) == arity && cmdName(cmds[j]) == name {
		j++
	}
	return j
}

// processWindow executes one pipeline window in order. Contiguous runs of
// plain SETs collapse into a single WriteCtx batch and runs of GETs into
// one MultiGetCtx — the network-layer extension of the paper's OBM:
// instead of hoping requests pile up in the worker queues, a pipelining
// client hands us the batch boundary explicitly. Replies keep the
// one-reply-per-command contract, in order.
func (c *conn) processWindow(cmds [][][]byte) {
	i := 0
	for i < len(cmds) && !c.closing {
		switch cmdName(cmds[i]) {
		case "SET":
			if j := runEnd(cmds, i, "SET", 3); j-i >= 2 {
				c.execSetRun(cmds[i:j])
				i = j
				continue
			}
		case "GET":
			if j := runEnd(cmds, i, "GET", 2); j-i >= 2 {
				c.execGetRun(cmds[i:j])
				i = j
				continue
			}
		}
		c.execOne(cmds[i])
		i++
	}
}

// cmdCtx builds the per-command (or per-coalesced-run) context from the
// server's CommandTimeout.
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

// execSetRun commits a coalesced run of pipelined SETs as one WriteCtx
// batch: one worker request (and one engine WriteBatch) per shard touched
// instead of one per command. All commands in the run share one fate —
// the batch either commits or every SET reports the same error.
func (c *conn) execSetRun(run [][][]byte) {
	if c.rejectIfReplica(len(run)) {
		return
	}
	start := time.Now()
	var b kv.Batch
	for _, cmd := range run {
		b.Put(cmd[1], cmd[2])
	}
	ctx, cancel := c.cmdCtx()
	err := c.srv.store().WriteCtx(ctx, &b)
	cancel()
	c.srv.stats.latFor("set").Record(time.Since(start))
	if err == nil {
		c.srv.stats.coalescedSets.Add(int64(len(run)))
	}
	for range run {
		if err != nil {
			c.writeStoreErr(err)
		} else {
			c.wr.WriteSimple("OK")
		}
	}
}

// execGetRun resolves a coalesced run of pipelined GETs through
// MultiGetCtx, whose per-shard legs OBM merges into engine multigets.
func (c *conn) execGetRun(run [][][]byte) {
	start := time.Now()
	keys := make([][]byte, len(run))
	for i, cmd := range run {
		keys[i] = cmd[1]
	}
	ctx, cancel := c.cmdCtx()
	vals, err := c.srv.store().MultiGetCtx(ctx, keys)
	cancel()
	c.srv.stats.latFor("get").Record(time.Since(start))
	if err != nil {
		for range run {
			c.writeStoreErr(err)
		}
		return
	}
	c.srv.stats.coalescedGets.Add(int64(len(run)))
	for _, v := range vals {
		c.wr.WriteBulk(v)
	}
}

// execOne dispatches a single (non-coalesced) command.
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
	case "SET":
		c.execSet(cmd)
	case "GET":
		c.execGet(cmd)
	case "DEL":
		c.execDel(cmd)
	case "MGET":
		c.execMGet(cmd)
	case "MSET":
		c.execMSet(cmd)
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
	c.srv.stats.latFor(strings.ToLower(name)).Record(time.Since(start))
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
	arg := strings.ToUpper(string(cmd[1]))
	if arg == "STATUS" {
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
// error replies, one per command in a coalesced run) if rejected.
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
	c.wr.WriteError("ERR wrong number of arguments for '" + strings.ToLower(name) + "' command")
}

func (c *conn) execSet(cmd [][]byte) {
	if len(cmd) != 3 {
		// Redis SET options (EX/NX/...) are not supported; reject
		// loudly rather than silently ignoring durability options.
		c.argErr("set")
		return
	}
	if c.rejectIfReplica(1) {
		return
	}
	ctx, cancel := c.cmdCtx()
	err := c.srv.store().PutCtx(ctx, cmd[1], cmd[2])
	cancel()
	if err != nil {
		c.writeStoreErr(err)
		return
	}
	c.wr.WriteSimple("OK")
}

func (c *conn) execGet(cmd [][]byte) {
	if len(cmd) != 2 {
		c.argErr("get")
		return
	}
	ctx, cancel := c.cmdCtx()
	v, err := c.srv.store().GetCtx(ctx, cmd[1])
	cancel()
	switch {
	case err == nil:
		c.wr.WriteBulk(v)
	case errors.Is(err, kv.ErrNotFound):
		c.wr.WriteBulk(nil)
	default:
		c.writeStoreErr(err)
	}
}

// execDel deletes the given keys as one batch. Reply is the number of
// keys submitted (p2KVS deletes are blind — existence is not checked, a
// documented deviation from Redis' deleted-count).
func (c *conn) execDel(cmd [][]byte) {
	if len(cmd) < 2 {
		c.argErr("del")
		return
	}
	if c.rejectIfReplica(1) {
		return
	}
	var b kv.Batch
	for _, k := range cmd[1:] {
		b.Delete(k)
	}
	ctx, cancel := c.cmdCtx()
	err := c.srv.store().WriteCtx(ctx, &b)
	cancel()
	if err != nil {
		c.writeStoreErr(err)
		return
	}
	c.wr.WriteInt(int64(len(cmd) - 1))
}

func (c *conn) execMGet(cmd [][]byte) {
	if len(cmd) < 2 {
		c.argErr("mget")
		return
	}
	ctx, cancel := c.cmdCtx()
	vals, err := c.srv.store().MultiGetCtx(ctx, cmd[1:])
	cancel()
	if err != nil {
		c.writeStoreErr(err)
		return
	}
	c.srv.stats.coalescedGets.Add(int64(len(vals)))
	c.wr.WriteArrayHeader(len(vals))
	for _, v := range vals {
		c.wr.WriteBulk(v)
	}
}

func (c *conn) execMSet(cmd [][]byte) {
	if len(cmd) < 3 || len(cmd)%2 != 1 {
		c.argErr("mset")
		return
	}
	if c.rejectIfReplica(1) {
		return
	}
	var b kv.Batch
	for i := 1; i+1 < len(cmd); i += 2 {
		b.Put(cmd[i], cmd[i+1])
	}
	ctx, cancel := c.cmdCtx()
	err := c.srv.store().WriteCtx(ctx, &b)
	cancel()
	if err != nil {
		c.writeStoreErr(err)
		return
	}
	c.srv.stats.coalescedSets.Add(int64(b.Len()))
	c.wr.WriteSimple("OK")
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
		if strings.ToUpper(string(cmd[2])) != "COUNT" {
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
