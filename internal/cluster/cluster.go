// Package cluster is the client-side serving tier over N independent
// p2kvs-server nodes: a consistent-hash ring (internal/keyspace, the
// same partitioner the paper names for runtime scaling) routes every
// key to one primary, multi-key operations split into per-host legs
// that run in parallel and reassemble in caller order, and reads can
// optionally fan out across a primary's replicas.
//
// The design deliberately mirrors the intra-node architecture one level
// up: inside a node, p2KVS shards the keyspace across worker instances;
// the cluster client shards it again across nodes. Both layers are
// share-nothing, so cluster throughput scales with node count exactly
// as node throughput scales with worker count — and both use the same
// hash family, so a key's route is deterministic from the node list
// alone. There is no proxy and no cluster metadata service: like the
// paper's framework itself, the tier is portable glue around unmodified
// stores.
//
// Consistency: writes go to the key's primary only. Replica reads are
// eventually consistent — the replication stream applies in per-worker
// GSN order, so a single client observing a single key through a single
// replica sees monotonic values, but a read may trail an acknowledged
// write by the replication lag. Callers that need read-your-writes
// leave ReadFromReplicas off (the default).
package cluster

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"p2kvs/internal/keyspace"
	"p2kvs/internal/server"
)

// MaxBatch caps one wire batch (MGET arity / MSET pairs) per host leg;
// larger multi-key calls split into several sequential batches on the
// same connection. Bounded batches keep head-of-line blocking and reply
// buffering on both sides predictable no matter how large the caller's
// key slice is.
const MaxBatch = 1024

// Node is one serving position on the ring: a primary plus its read
// replicas.
type Node struct {
	Addr     string   // primary address, host:port
	Replicas []string // optional replica addresses for read fanout
}

// Options tunes a Client.
type Options struct {
	// MaxBatch overrides the per-leg batch cap; 0 selects (and values
	// above it clamp to) MaxBatch.
	MaxBatch int
	// ReadFromReplicas spreads Get/MGet across each node's primary and
	// replicas round-robin. Reads become eventually consistent.
	ReadFromReplicas bool
}

// dialTimeout bounds connection establishment.
const dialTimeout = 5 * time.Second

// Client routes commands across the cluster. Safe for concurrent use;
// legs to distinct endpoints run in parallel, commands to the same
// endpoint serialize on its connection.
type Client struct {
	nodes []Node
	ring  keyspace.Consistent
	opts  Options

	mu    sync.Mutex
	conns map[string]*Conn
	rr    atomic.Uint64 // replica round-robin cursor

	closed atomic.Bool
}

// New builds a client over the given nodes. The node list order defines
// ring identity: the same list yields the same key routes everywhere.
func New(nodes []Node, opts Options) (*Client, error) {
	if len(nodes) == 0 {
		return nil, errors.New("cluster: empty node list")
	}
	if opts.MaxBatch <= 0 || opts.MaxBatch > MaxBatch {
		opts.MaxBatch = MaxBatch
	}
	return &Client{
		nodes: nodes,
		ring:  keyspace.NewConsistent(len(nodes), keyspace.DefaultReplicas),
		opts:  opts,
		conns: make(map[string]*Conn),
	}, nil
}

// Close drops every cached connection.
func (c *Client) Close() {
	c.closed.Store(true)
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, rc := range c.conns {
		rc.Close()
	}
}

// pick returns the owning node index for a key.
func (c *Client) pick(key []byte) int { return c.ring.Pick(key) }

// readAddr returns the endpoint a read for node n should use:
// round-robin over primary + replicas when fanout is on, else the
// primary.
func (c *Client) readAddr(n int) string {
	node := c.nodes[n]
	if !c.opts.ReadFromReplicas || len(node.Replicas) == 0 {
		return node.Addr
	}
	i := int(c.rr.Add(1)) % (1 + len(node.Replicas))
	if i == 0 {
		return node.Addr
	}
	return node.Replicas[i-1]
}

func (c *Client) conn(addr string) *Conn {
	c.mu.Lock()
	defer c.mu.Unlock()
	rc, ok := c.conns[addr]
	if !ok {
		rc = NewConn(addr, dialTimeout)
		c.conns[addr] = rc
	}
	return rc
}

// exchange sends one command and reads one reply on addr's pooled
// connection.
func (c *Client) exchange(addr string, args ...[]byte) (server.Reply, error) {
	if c.closed.Load() {
		return server.Reply{}, errors.New("cluster: client closed")
	}
	return c.conn(addr).Do(args...)
}

// replyErr converts an error reply into a Go error.
func replyErr(rep server.Reply) error {
	if rep.IsError() {
		return errors.New(string(rep.Str))
	}
	return nil
}

// Set writes one key to its primary.
func (c *Client) Set(key, value []byte) error {
	rep, err := c.exchange(c.nodes[c.pick(key)].Addr, []byte("SET"), key, value)
	if err != nil {
		return err
	}
	return replyErr(rep)
}

// Del deletes one key on its primary.
func (c *Client) Del(key []byte) error {
	rep, err := c.exchange(c.nodes[c.pick(key)].Addr, []byte("DEL"), key)
	if err != nil {
		return err
	}
	return replyErr(rep)
}

// Get reads one key, from a replica when fanout is enabled. Missing
// keys return (nil, nil).
func (c *Client) Get(key []byte) ([]byte, error) {
	rep, err := c.exchange(c.readAddr(c.pick(key)), []byte("GET"), key)
	if err != nil {
		return nil, err
	}
	if err := replyErr(rep); err != nil {
		return nil, err
	}
	if rep.Nil {
		return nil, nil
	}
	return rep.Str, nil
}

// leg is one host's share of a multi-key call: the key indices (into
// the caller's slice) it owns, in caller order.
type leg struct {
	addr string
	idx  []int
}

// split groups key indices by endpoint. route maps a key's ring owner
// to the endpoint the leg should talk to.
func (c *Client) split(keys [][]byte, route func(node int) string) []leg {
	byAddr := make(map[string]*leg)
	order := make([]*leg, 0, len(c.nodes))
	for i, k := range keys {
		addr := route(c.pick(k))
		l, ok := byAddr[addr]
		if !ok {
			l = &leg{addr: addr}
			byAddr[addr] = l
			order = append(order, l)
		}
		l.idx = append(l.idx, i)
	}
	out := make([]leg, len(order))
	for i, l := range order {
		out[i] = *l
	}
	return out
}

// fanOut splits keys into per-endpoint legs, runs the legs in parallel
// and, within a leg, hands do up to MaxBatch key indices (into keys) at a
// time. A leg stops at its first error; the other legs run on.
func (c *Client) fanOut(keys [][]byte, route func(node int) string, do func(addr string, chunk []int) error) error {
	legs := c.split(keys, route)
	errs := make([]error, len(legs))
	var wg sync.WaitGroup
	for li, l := range legs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for off := 0; off < len(l.idx) && errs[li] == nil; off += c.opts.MaxBatch {
				errs[li] = do(l.addr, l.idx[off:min(off+c.opts.MaxBatch, len(l.idx))])
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// MGet reads keys across the cluster: per-endpoint legs run in
// parallel, each leg batching up to MaxBatch keys per MGET. The result
// is in caller order; missing keys are nil entries.
func (c *Client) MGet(keys [][]byte) ([][]byte, error) {
	if len(keys) == 0 {
		return nil, nil
	}
	out := make([][]byte, len(keys))
	err := c.fanOut(keys, c.readAddr, func(addr string, chunk []int) error {
		args := make([][]byte, 0, len(chunk)+1)
		args = append(args, []byte("MGET"))
		for _, i := range chunk {
			args = append(args, keys[i])
		}
		rep, err := c.exchange(addr, args...)
		if err == nil {
			err = replyErr(rep)
		}
		if err == nil && len(rep.Elems) != len(chunk) {
			err = fmt.Errorf("cluster: %s: MGET arity mismatch", addr)
		}
		if err != nil {
			return err
		}
		for j, i := range chunk {
			if e := rep.Elems[j]; !e.Nil {
				out[i] = e.Str
			}
		}
		return nil
	})
	return out, err
}

// MSet writes pairs across the cluster, one parallel leg per primary,
// batching up to MaxBatch pairs per MSET. Legs commit independently: on
// error, pairs routed to healthy primaries are still written (the same
// per-shard fate contract the single-node MSET gives across workers).
func (c *Client) MSet(keys, values [][]byte) error {
	if len(keys) != len(values) {
		return errors.New("cluster: MSet keys/values length mismatch")
	}
	primary := func(n int) string { return c.nodes[n].Addr }
	return c.fanOut(keys, primary, func(addr string, chunk []int) error {
		args := make([][]byte, 0, 2*len(chunk)+1)
		args = append(args, []byte("MSET"))
		for _, i := range chunk {
			args = append(args, keys[i], values[i])
		}
		rep, err := c.exchange(addr, args...)
		if err == nil {
			err = replyErr(rep)
		}
		return err
	})
}

// Nodes returns the ring's node list (read-only view).
func (c *Client) Nodes() []Node { return c.nodes }
