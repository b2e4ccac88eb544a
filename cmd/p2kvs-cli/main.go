// Command p2kvs-cli is a small interactive shell over a p2KVS store:
//
//	p2kvs-cli -dir /tmp/db -workers 8    # no -dir: in-memory
//	> put greeting hello
//	> get greeting
//	hello
//	> scan a 10
//	> range a z
//	> stats
//	> quit
//
// With -cluster it instead talks to a multi-node serving tier through
// the consistent-hash cluster client. Nodes are comma-separated; a
// primary's read replicas follow it after slashes:
//
//	p2kvs-cli -cluster host1:6380/replica1:6390,host2:6380 -replica_reads
//	> put greeting hello
//	> mget greeting other
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"p2kvs"
	"p2kvs/internal/cluster"
	"p2kvs/internal/loadgen"
	"p2kvs/internal/stats"
)

func main() {
	var (
		clusterSpec  = flag.String("cluster", "", "cluster mode: comma-separated nodes, each primary[/replica...] (host:port)")
		replicaReads = flag.Bool("replica_reads", false, "with -cluster, fan reads out across each node's replicas (eventually consistent)")
	)
	storeOpts := loadgen.StoreFlags(flag.CommandLine, p2kvs.Options{Workers: 4})
	flag.Parse()

	if *clusterSpec != "" {
		runCluster(*clusterSpec, *replicaReads)
		return
	}
	opts, err := storeOpts()
	if err != nil {
		fmt.Fprintln(os.Stderr, "p2kvs-cli:", err)
		os.Exit(2)
	}
	store, err := p2kvs.Open(opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "p2kvs-cli:", err)
		os.Exit(1)
	}
	defer store.Close()
	fmt.Println("p2kvs shell — commands: put k v | get k | del k | scan start n | range lo hi | stats | quit")
	repl(func(line string) bool { return execute(store, line) })
}

// repl feeds stdin lines to exec until it reports quit or input ends.
func repl(exec func(line string) (quit bool)) {
	sc := bufio.NewScanner(os.Stdin)
	fmt.Print("> ")
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" && exec(line) {
			return
		}
		fmt.Print("> ")
	}
}

// pointKV is what both shells share: single-key commands. A missing key
// reads as p2kvs.ErrNotFound (embedded) or a nil value (cluster).
type pointKV interface {
	Put(key, value []byte) error
	Get(key []byte) ([]byte, error)
	Delete(key []byte) error
}

func fail(format string, a ...interface{}) { fmt.Printf("error: "+format+"\n", a...) }

// point runs put/get/del/quit; handled is false for any other command.
func point(kv pointKV, cmd string, args []string) (handled, quit bool) {
	arity := map[string]int{"put": 2, "set": 2, "get": 1, "del": 1, "delete": 1}
	if n, ok := arity[cmd]; ok && len(args) != n {
		fail("usage: put <key> <value> | get <key> | del <key>")
		return true, false
	}
	var err error
	switch cmd {
	case "put", "set":
		err = kv.Put([]byte(args[0]), []byte(args[1]))
	case "get":
		var v []byte
		if v, err = kv.Get([]byte(args[0])); err == p2kvs.ErrNotFound || (err == nil && v == nil) {
			fmt.Println("(not found)")
			return true, false
		} else if err == nil {
			fmt.Println(string(v))
		}
	case "del", "delete":
		err = kv.Delete([]byte(args[0]))
	case "quit", "exit":
		return true, true
	default:
		return false, false
	}
	if err != nil {
		fail("%v", err)
	}
	return true, false
}

func execute(store *p2kvs.Store, line string) (quit bool) {
	fields := strings.Fields(line)
	cmd, args := strings.ToLower(fields[0]), fields[1:]
	if handled, quit := point(store, cmd, args); handled {
		return quit
	}
	switch cmd {
	case "scan":
		if len(args) != 2 {
			fail("usage: scan <start> <count>")
			return
		}
		n, err := strconv.Atoi(args[1])
		if err != nil {
			fail("bad count: %v", err)
			return
		}
		pairs, err := store.Scan([]byte(args[0]), n)
		if err != nil {
			fail("%v", err)
			return
		}
		for _, p := range pairs {
			fmt.Printf("%s = %s\n", p.Key, p.Value)
		}
	case "range":
		if len(args) != 2 {
			fail("usage: range <lo> <hi>")
			return
		}
		pairs, err := store.Range([]byte(args[0]), []byte(args[1]))
		if err != nil {
			fail("%v", err)
			return
		}
		for _, p := range pairs {
			fmt.Printf("%s = %s\n", p.Key, p.Value)
		}
	case "stats":
		for _, ws := range store.Stats() {
			fmt.Printf("worker %d:", ws.ID)
			for _, p := range stats.Pairs(ws, "", "Store") {
				fmt.Printf(" %s=%s", p[0], p[1])
			}
			fmt.Println()
		}
	default:
		fail("unknown command %q", cmd)
	}
	return false
}

// parseClusterSpec turns "p1:6380/r1:6390/r2:6391,p2:6380" into the
// cluster client's node list.
func parseClusterSpec(spec string) ([]cluster.Node, error) {
	var nodes []cluster.Node
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		hosts := strings.Split(part, "/")
		n := cluster.Node{Addr: hosts[0]}
		for _, r := range hosts[1:] {
			if r = strings.TrimSpace(r); r != "" {
				n.Replicas = append(n.Replicas, r)
			}
		}
		nodes = append(nodes, n)
	}
	if len(nodes) == 0 {
		return nil, fmt.Errorf("no nodes in cluster spec %q", spec)
	}
	return nodes, nil
}

func runCluster(spec string, replicaReads bool) {
	nodes, err := parseClusterSpec(spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "p2kvs-cli:", err)
		os.Exit(1)
	}
	cl, err := cluster.New(nodes, cluster.Options{ReadFromReplicas: replicaReads})
	if err != nil {
		fmt.Fprintln(os.Stderr, "p2kvs-cli:", err)
		os.Exit(1)
	}
	defer cl.Close()

	fmt.Printf("p2kvs cluster shell (%d nodes) — commands: put k v | get k | del k | mget k... | mset k v [k v]... | nodes | quit\n", len(nodes))
	repl(func(line string) bool { return executeCluster(cl, line) })
}

// clusterKV gives the cluster client the embedded store's method names.
type clusterKV struct{ *cluster.Client }

func (c clusterKV) Put(key, value []byte) error { return c.Set(key, value) }
func (c clusterKV) Delete(key []byte) error     { return c.Del(key) }

func executeCluster(cl *cluster.Client, line string) (quit bool) {
	fields := strings.Fields(line)
	cmd, args := strings.ToLower(fields[0]), fields[1:]
	if handled, quit := point(clusterKV{cl}, cmd, args); handled {
		return quit
	}
	switch cmd {
	case "mget":
		if len(args) == 0 {
			fail("usage: mget <key>...")
			return
		}
		keys := make([][]byte, len(args))
		for i, a := range args {
			keys[i] = []byte(a)
		}
		vals, err := cl.MGet(keys)
		if err != nil {
			fail("%v", err)
			return
		}
		for i, v := range vals {
			if v == nil {
				fmt.Printf("%s = (not found)\n", args[i])
			} else {
				fmt.Printf("%s = %s\n", args[i], v)
			}
		}
	case "mset":
		if len(args) == 0 || len(args)%2 != 0 {
			fail("usage: mset <key> <value> [<key> <value>]...")
			return
		}
		keys := make([][]byte, 0, len(args)/2)
		vals := make([][]byte, 0, len(args)/2)
		for i := 0; i < len(args); i += 2 {
			keys = append(keys, []byte(args[i]))
			vals = append(vals, []byte(args[i+1]))
		}
		if err := cl.MSet(keys, vals); err != nil {
			fail("%v", err)
		}
	case "nodes":
		for i, n := range cl.Nodes() {
			if len(n.Replicas) > 0 {
				fmt.Printf("node %d: %s (replicas: %s)\n", i, n.Addr, strings.Join(n.Replicas, ", "))
			} else {
				fmt.Printf("node %d: %s\n", i, n.Addr)
			}
		}
	default:
		fail("unknown command %q", cmd)
	}
	return false
}
