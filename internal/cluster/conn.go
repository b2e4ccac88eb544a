package cluster

import (
	"fmt"
	"net"
	"sync"
	"time"

	"p2kvs/internal/server"
)

// Conn is the repository's one RESP client connection, shared by the
// cluster client, netbench, the crash harness and p2kvs-cli: it dials on
// first use, pipelines commands, and gives a stale cached connection
// (server restarted, idle timeout) one redial and one retry. The mutex
// spans a full request/reply exchange, keeping the RESP stream framed.
type Conn struct {
	addr    string
	timeout time.Duration

	mu sync.Mutex
	nc net.Conn
	rd *server.Reader
	wr *server.Writer
}

// NewConn returns an undialed connection to addr. dialTimeout <= 0
// selects 5s.
func NewConn(addr string, dialTimeout time.Duration) *Conn {
	if dialTimeout <= 0 {
		dialTimeout = 5 * time.Second
	}
	return &Conn{addr: addr, timeout: dialTimeout}
}

// Cmd builds one command from string arguments.
func Cmd(args ...string) [][]byte {
	out := make([][]byte, len(args))
	for i, a := range args {
		out[i] = []byte(a)
	}
	return out
}

// Do sends one command and reads its reply. An error reply is returned
// as a Reply, not as an error.
func (c *Conn) Do(args ...[]byte) (server.Reply, error) {
	reps, err := c.Pipeline([][][]byte{args})
	if err != nil {
		return server.Reply{}, err
	}
	return reps[0], nil
}

// Pipeline writes cmds back to back, flushes once and reads one reply
// each. A transport error on a connection that had been used before gets
// one redial and one resend of the whole window — callers pipeline only
// idempotent commands; an error reply is returned to the caller, not
// retried.
func (c *Conn) Pipeline(cmds [][][]byte) ([]server.Reply, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	fresh := c.nc == nil
	if fresh {
		if err := c.dial(); err != nil {
			return nil, err
		}
	}
	reps, err := c.roundTrip(cmds)
	if err != nil && !fresh {
		c.nc.Close()
		if err = c.dial(); err != nil {
			return nil, err
		}
		reps, err = c.roundTrip(cmds)
	}
	if err != nil {
		c.nc.Close()
		c.nc = nil
		return nil, fmt.Errorf("cluster: %s: %w", c.addr, err)
	}
	return reps, nil
}

// Close drops the connection; a later call dials afresh.
func (c *Conn) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.nc == nil {
		return nil
	}
	nc := c.nc
	c.nc = nil
	return nc.Close()
}

func (c *Conn) dial() error {
	nc, err := net.DialTimeout("tcp", c.addr, c.timeout)
	if err != nil {
		c.nc = nil
		return fmt.Errorf("cluster: dial %s: %w", c.addr, err)
	}
	c.nc, c.rd, c.wr = nc, server.NewReader(nc), server.NewWriter(nc)
	return nil
}

func (c *Conn) roundTrip(cmds [][][]byte) ([]server.Reply, error) {
	for _, cmd := range cmds {
		c.wr.WriteCommand(cmd...)
	}
	if err := c.wr.Flush(); err != nil {
		return nil, err
	}
	reps := make([]server.Reply, len(cmds))
	for i := range cmds {
		rep, err := c.rd.ReadReply()
		if err != nil {
			return nil, err
		}
		reps[i] = rep
	}
	return reps, nil
}
