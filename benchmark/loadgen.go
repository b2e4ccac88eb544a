package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"strconv"
	"syscall"
	"time"

	"p2kvs/internal/core"
	"p2kvs/internal/kv"
)

var epoch = time.Now()

// nowNs is the benchmark's monotonic clock.
func nowNs() int64 { return int64(time.Since(epoch)) }

// opSource yields one client's next operation; ok=false ends the client.
// now is the clock reading the client is about to use as the submit time.
type opSource func(now int64) (id uint64, write, ok bool)

var errMissing = errors.New("key not found")

// clientResult is what one client observed: latency per operation type
// (submit to result), and every error, refusal or wrong value.
type clientResult struct {
	read, write hist
	failed      int64
	firstErr    error
}

func (r *clientResult) fail(err error) {
	r.failed++
	if r.firstErr == nil {
		r.firstErr = err
	}
}

func (r *clientResult) merge(o *clientResult) {
	r.read.merge(&o.read)
	r.write.merge(&o.write)
	r.failed += o.failed
	if r.firstErr == nil {
		r.firstErr = o.firstErr
	}
}

// ---------------------------------------------------------------------------
// Asynchronous windowed client (core.Store PutAsync / GetAsync)
// ---------------------------------------------------------------------------

// asyncSlot is one in-flight request. Its buffers and callbacks are built
// once, so the load generator allocates nothing per operation.
type asyncSlot struct {
	key        [keyLen]byte
	val        [valueLen]byte
	id         uint64
	ver, floor uint32
	write      bool
	t0, t1     int64
	got        []byte
	err        error
	putCB      func(error)
	getCB      func([]byte, error)
}

// asyncClient keeps up to len(slots) requests in flight: a closed loop
// whose queue depth comes from the window, not from more goroutines.
type asyncClient struct {
	st    *core.Store
	vs    *versions
	slots []asyncSlot
	free  []int
	done  chan int // completed slot indexes; capacity = window, so never blocks
	res   clientResult
}

func newAsyncClient(st *core.Store, vs *versions, window int) *asyncClient {
	c := &asyncClient{st: st, vs: vs, slots: make([]asyncSlot, window), done: make(chan int, window)}
	for i := range c.slots {
		i, s := i, &c.slots[i]
		s.putCB = func(err error) {
			s.err, s.t1 = err, nowNs()
			c.done <- i
		}
		s.getCB = func(v []byte, err error) {
			s.got, s.err, s.t1 = v, err, nowNs()
			c.done <- i
		}
		c.free = append(c.free, i)
	}
	return c
}

func (c *asyncClient) run(next opSource) {
	inflight, more := 0, true
	for {
		for more && len(c.free) > 0 {
			now := nowNs()
			id, write, ok := next(now)
			if !ok {
				more = false
				break
			}
			i := c.free[len(c.free)-1]
			c.free = c.free[:len(c.free)-1]
			c.submit(i, id, write, now)
			inflight++
		}
		if inflight == 0 {
			return
		}
		c.finish(<-c.done)
		inflight--
	drain:
		for {
			select {
			case i := <-c.done:
				c.finish(i)
				inflight--
			default:
				break drain
			}
		}
	}
}

func (c *asyncClient) submit(i int, id uint64, write bool, now int64) {
	s := &c.slots[i]
	s.id, s.write, s.t0, s.got = id, write, now, nil
	putKey(s.key[:], id)
	var err error
	if write {
		s.ver = c.vs.issue(id)
		putValue(s.val[:], id, s.ver)
		err = c.st.PutAsync(s.key[:], s.val[:], s.putCB)
	} else {
		s.floor = c.vs.acked[id].Load()
		err = c.st.GetAsync(s.key[:], s.getCB)
	}
	if err != nil { // refused at admission: the callback will not run
		s.err, s.t1 = err, nowNs()
		c.done <- i
	}
}

func (c *asyncClient) finish(i int) {
	s := &c.slots[i]
	if s.write {
		c.res.write.record(s.t1 - s.t0)
		if s.err != nil {
			c.res.fail(fmt.Errorf("put key id %d: %w", s.id, s.err))
		} else {
			c.vs.acked[s.id].Store(s.ver)
		}
	} else {
		c.res.read.record(s.t1 - s.t0)
		switch {
		case s.err != nil:
			c.res.fail(fmt.Errorf("get key id %d: %w", s.id, s.err))
		default:
			if err := c.vs.checkRead(s.got, s.id, s.floor); err != nil {
				c.res.fail(err)
			}
		}
	}
	c.free = append(c.free, i)
}

// ---------------------------------------------------------------------------
// Synchronous client over either access path
// ---------------------------------------------------------------------------

// kvConn is one synchronous access path: core.Store called directly, or
// the RESP server over a socket.
type kvConn interface {
	get(key []byte) ([]byte, error) // errMissing when absent
	set(key, val []byte) error
}

type coreConn struct{ st *core.Store }

func (c coreConn) get(key []byte) ([]byte, error) {
	v, err := c.st.Get(key)
	if errors.Is(err, kv.ErrNotFound) {
		return nil, errMissing
	}
	return v, err
}

func (c coreConn) set(key, val []byte) error { return c.st.Put(key, val) }

// syncClient issues one request at a time. With a tracer it records a
// client.get / client.set span around each.
type syncClient struct {
	conn kvConn
	vs   *versions
	tr   *tracer
	key  [keyLen]byte
	val  [valueLen]byte
	res  clientResult
}

// do performs one operation now. from, when non-zero, is the time the
// latency is measured from (the due time of an open-loop operation);
// otherwise it is the start.
func (c *syncClient) do(id uint64, write bool, from int64) {
	putKey(c.key[:], id)
	start := nowNs()
	if from == 0 {
		from = start
	}
	if write {
		ver := c.vs.issue(id)
		putValue(c.val[:], id, ver)
		err := c.conn.set(c.key[:], c.val[:])
		end := nowNs()
		c.res.write.record(end - from)
		if err != nil {
			c.res.fail(fmt.Errorf("set key id %d: %w", id, err))
		} else {
			c.vs.acked[id].Store(ver)
		}
		if c.tr != nil {
			c.tr.record(sharedShard, spClientSet, false, 1, start, end)
		}
		return
	}
	floor := c.vs.acked[id].Load()
	v, err := c.conn.get(c.key[:])
	end := nowNs()
	c.res.read.record(end - from)
	if err != nil {
		c.res.fail(fmt.Errorf("get key id %d: %w", id, err))
	} else if err := c.vs.checkRead(v, id, floor); err != nil {
		c.res.fail(err)
	}
	if c.tr != nil {
		c.tr.record(sharedShard, spClientGet, false, 1, start, end)
	}
}

// run is the closed loop: the next request is sent when the previous one
// has completed.
func (c *syncClient) run(next opSource) {
	for {
		id, write, ok := next(nowNs())
		if !ok {
			return
		}
		c.do(id, write, 0)
	}
}

// pacer is the open-loop schedule: operation i is due at
// start + i*interval whatever happened to the ones before it.
type pacer struct {
	start, interval int64
	i, late         int64
	now             func() int64
	sleep           func(ns int64)
}

// next waits until the next operation is due and returns its due time;
// ok=false once the schedule reaches end. An operation that cannot start
// within one interval of its due time is counted late: beyond that the
// backlog, not the system's service time, is what the latency shows.
func (p *pacer) next(end int64) (due int64, ok bool) {
	due = p.start + p.i*p.interval
	if due >= end {
		return 0, false
	}
	p.i++
	now := p.now()
	if now < due {
		p.sleep(due - now)
		now = p.now()
	}
	if now-due > p.interval {
		p.late++
	}
	return due, true
}

// preciseSleep blocks the calling thread in nanosleep(2). time.Sleep parks
// the goroutine on the runtime's poller, whose timeout has millisecond
// granularity: it overshoots a 200 us wait by about 1 ms.
func preciseSleep(ns int64) {
	ts := syscall.NsecToTimespec(ns)
	_ = syscall.Nanosleep(&ts, nil) // an early wake-up only makes the caller re-check the clock
}

// prSetTimerSlack is prctl(2)'s PR_SET_TIMERSLACK.
const prSetTimerSlack = 29

// runPaced sends operations on the pacer's schedule until end, timing each
// from its due time. It pins its goroutine to a thread and drops that
// thread's timer slack from the default 50 us to 1 ns for the duration, so
// a sleep overshoots by about 10 us instead of 70.
func (c *syncClient) runPaced(p *pacer, end int64, next opSource) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0)
	defer syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 0, 0) // 0 restores the default
	for {
		due, ok := p.next(end)
		if !ok {
			return
		}
		id, write, _ := next(due)
		c.do(id, write, due)
	}
}

// ---------------------------------------------------------------------------
// RESP client
// ---------------------------------------------------------------------------

// respConn is the benchmark's own RESP2 client: just enough protocol for
// GET, SET and INFO, with reused buffers.
type respConn struct {
	nc      net.Conn
	br      *bufio.Reader
	bw      *bufio.Writer
	scratch []byte
	payload []byte
}

func dialRESP(addr string) (*respConn, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &respConn{nc: nc, br: bufio.NewReaderSize(nc, 64<<10), bw: bufio.NewWriterSize(nc, 64<<10)}, nil
}

func (r *respConn) close() error { return r.nc.Close() }

func (r *respConn) writeCmd(args ...[]byte) {
	b := append(r.scratch[:0], '*')
	b = strconv.AppendInt(b, int64(len(args)), 10)
	b = append(b, '\r', '\n')
	for _, a := range args {
		b = append(b, '$')
		b = strconv.AppendInt(b, int64(len(a)), 10)
		b = append(b, '\r', '\n')
		b = append(b, a...)
		b = append(b, '\r', '\n')
	}
	r.scratch = b
	r.bw.Write(b) // a write error resurfaces at flush
}

var (
	cmdGet  = []byte("GET")
	cmdSet  = []byte("SET")
	cmdInfo = []byte("INFO")
)

// readReply parses one reply. kind is the RESP type byte; data is the
// line or bulk payload (valid until the next call); null marks a nil
// bulk. Error replies come back as kind '-' with a nil error.
func (r *respConn) readReply() (kind byte, data []byte, null bool, err error) {
	line, err := r.br.ReadSlice('\n')
	if err != nil {
		return 0, nil, false, err
	}
	if len(line) < 3 || line[len(line)-2] != '\r' {
		return 0, nil, false, fmt.Errorf("resp: malformed reply line %q", line)
	}
	kind, line = line[0], line[1:len(line)-2]
	switch kind {
	case '+', '-', ':':
		return kind, line, false, nil
	case '$':
		n, err := strconv.Atoi(string(line))
		if err != nil {
			return 0, nil, false, fmt.Errorf("resp: bad bulk length %q", line)
		}
		if n < 0 {
			return kind, nil, true, nil
		}
		if cap(r.payload) < n+2 {
			r.payload = make([]byte, n+2)
		}
		buf := r.payload[:n+2]
		if _, err := io.ReadFull(r.br, buf); err != nil {
			return 0, nil, false, err
		}
		return kind, buf[:n], false, nil
	}
	return 0, nil, false, fmt.Errorf("resp: unexpected reply type %q", kind)
}

func (r *respConn) get(key []byte) ([]byte, error) {
	r.writeCmd(cmdGet, key)
	if err := r.bw.Flush(); err != nil {
		return nil, err
	}
	return r.getReply()
}

func (r *respConn) getReply() ([]byte, error) {
	kind, data, null, err := r.readReply()
	switch {
	case err != nil:
		return nil, err
	case kind == '-':
		return nil, fmt.Errorf("server replied: %s", data)
	case kind != '$':
		return nil, fmt.Errorf("resp: GET replied with type %q", kind)
	case null:
		return nil, errMissing
	}
	return data, nil
}

func (r *respConn) set(key, val []byte) error {
	r.writeCmd(cmdSet, key, val)
	if err := r.bw.Flush(); err != nil {
		return err
	}
	return r.setReply()
}

func (r *respConn) setReply() error {
	kind, data, _, err := r.readReply()
	switch {
	case err != nil:
		return err
	case kind == '-':
		return fmt.Errorf("server replied: %s", data)
	case kind != '+' || string(data) != "OK":
		return fmt.Errorf("resp: SET replied %q %q", kind, data)
	}
	return nil
}

// info fetches INFO and returns its "key:value" lines as a map.
func (r *respConn) info() (map[string]string, error) {
	r.writeCmd(cmdInfo)
	if err := r.bw.Flush(); err != nil {
		return nil, err
	}
	kind, data, _, err := r.readReply()
	if err != nil {
		return nil, err
	}
	if kind != '$' {
		return nil, fmt.Errorf("resp: INFO replied with type %q: %s", kind, data)
	}
	out := make(map[string]string)
	for _, line := range bytes.Split(data, []byte("\r\n")) {
		if k, v, ok := bytes.Cut(line, []byte(":")); ok {
			out[string(k)] = string(v)
		}
	}
	return out, nil
}

// pipeClient is the pipelined closed loop: depth commands are written in
// one flush, then their replies are read in order. Each command's latency
// runs from the flush to its own reply.
type pipeClient struct {
	rc    *respConn
	vs    *versions
	depth int
	ops   []pipeOp
	res   clientResult
}

type pipeOp struct {
	id         uint64
	ver, floor uint32
	write      bool
}

func (c *pipeClient) run(next opSource) {
	var key [keyLen]byte
	var val [valueLen]byte
	for {
		t0 := nowNs()
		c.ops = c.ops[:0]
		for len(c.ops) < c.depth {
			id, write, ok := next(t0)
			if !ok {
				break
			}
			op := pipeOp{id: id, write: write}
			putKey(key[:], id)
			if write {
				op.ver = c.vs.issue(id)
				putValue(val[:], id, op.ver)
				c.rc.writeCmd(cmdSet, key[:], val[:])
			} else {
				op.floor = c.vs.acked[id].Load()
				c.rc.writeCmd(cmdGet, key[:])
			}
			c.ops = append(c.ops, op)
		}
		if len(c.ops) == 0 {
			return
		}
		if err := c.rc.bw.Flush(); err != nil {
			c.res.fail(fmt.Errorf("pipeline flush: %w", err))
			return
		}
		for _, op := range c.ops {
			if op.write {
				err := c.rc.setReply()
				c.res.write.record(nowNs() - t0)
				if err != nil {
					c.res.fail(fmt.Errorf("set key id %d: %w", op.id, err))
				} else {
					c.vs.acked[op.id].Store(op.ver)
				}
				continue
			}
			v, err := c.rc.getReply()
			c.res.read.record(nowNs() - t0)
			if err != nil {
				c.res.fail(fmt.Errorf("get key id %d: %w", op.id, err))
			} else if err := c.vs.checkRead(v, op.id, op.floor); err != nil {
				c.res.fail(err)
			}
		}
	}
}
