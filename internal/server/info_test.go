package server

import (
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"strings"
	"testing"

	"p2kvs"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// infoKeys reduces an INFO reply to its ordered "# Section" headers and
// key names.
func infoKeys(info string) string {
	var b strings.Builder
	for _, line := range strings.Split(info, "\r\n") {
		if k, _, ok := strings.Cut(line, ":"); ok {
			b.WriteString(k + "\n")
		} else if line != "" {
			b.WriteString(line + "\n")
		}
	}
	return b.String()
}

// TestInfoKeysGolden pins the INFO key set, section by section and in
// order, for a default server, an elastic hot-cache server after a
// reshard, and both ends of a replication pair, plus the keys of the
// SCRUB and RESHARD STATUS replies. Operators' dashboards and
// scripts/stress.sh parse these names; a change must be deliberate:
//
//	make stats-golden
func TestInfoKeysGolden(t *testing.T) {
	var got strings.Builder
	variant := func(name string, c *client) {
		c.do(t, "PING")
		c.do(t, "INFO") // so the second reply carries cmdstat_info
		fmt.Fprintf(&got, "== %s\n%s", name, infoKeys(string(c.do(t, "INFO").Str)))
	}

	dc := dialTest(t, startTestServer(t, 2, nil, nil, Config{}))
	variant("default", dc)
	fmt.Fprintf(&got, "== SCRUB reply\n%s", infoKeys(string(dc.do(t, "SCRUB").Str)))

	store, err := p2kvs.Open(p2kvs.Options{Dir: t.TempDir(), Workers: 2, InMemory: true, Elastic: true, HotCacheBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Config{Store: store})
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		srv.Serve(lis)
		close(done)
	}()
	t.Cleanup(func() {
		srv.Shutdown(t.Context())
		<-done
	})
	ec := dialTest(t, &testServer{addr: lis.Addr().String()})
	mustOK(t, ec.do(t, "SET", "k", "v"))
	if rep := ec.do(t, "RESHARD", "3"); rep.Kind == '-' {
		t.Fatalf("RESHARD 3: %s", rep.Str)
	}
	waitFor(t, func() bool {
		m := infoMap(t, ec)
		return m["reshard_completed"] == "1" && m["reshard_in_progress"] == "0"
	})
	variant("hot_cache+reshard", ec)
	fmt.Fprintf(&got, "== RESHARD STATUS reply\n%s", infoKeys(string(ec.do(t, "RESHARD", "STATUS").Str)))

	prim := startReplNode(t, 2, 1<<20, "")
	pc := prim.dial(t)
	mustOK(t, pc.do(t, "SET", "k", "v"))
	rc := startReplNode(t, 2, 1<<20, prim.addr).dial(t)
	waitConverged(t, rc, "k", "v")
	waitFor(t, func() bool {
		return infoMap(t, rc)["replica_lag_gsn"] == "0" && infoMap(t, pc)["connected_replicas"] == "1"
	})
	variant("primary", pc)
	variant("replica", rc)

	const golden = "testdata/info_keys.golden"
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if got.String() != string(want) {
		t.Errorf("INFO keys drifted from %s (rerun with -update if intended):\n--- got ---\n%s", golden, got.String())
	}
}

// TestMetricsEndpoint fetches /metrics from a live debug listener: its
// "server" document must carry, under the INFO key names, every numeric
// key of INFO's # Server, # Clients and # Stats sections and the three
// server-owned robustness counters — one snapshot struct feeds both.
func TestMetricsEndpoint(t *testing.T) {
	probe, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	debugAddr := probe.Addr().String()
	probe.Close()
	c := dialTest(t, startTestServer(t, 2, nil, nil, Config{DebugAddr: debugAddr}))
	mustOK(t, c.do(t, "SET", "k", "v"))
	info := string(c.do(t, "INFO").Str)

	resp, err := http.Get("http://" + debugAddr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc struct {
		Server map[string]any `json:"server"`
		Store  struct {
			Aggregate map[string]any `json:"aggregate"`
		} `json:"store"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}

	keys := []string{"corruption_replies", "conn_panics_recovered", "conn_idle_closed"}
	head, _, _ := strings.Cut(infoKeys(info), "# Commandstats\n")
	for _, k := range strings.Fields(head) {
		if k != "#" && k != "Server" && k != "Clients" && k != "Stats" {
			keys = append(keys, k)
		}
	}
	if len(keys) < 3+2+3+8 {
		t.Fatalf("INFO sections parsed to only %v", keys)
	}
	for _, k := range keys {
		if _, isNum := doc.Server[k].(float64); !isNum && k != "tcp_addr" {
			t.Errorf("/metrics server.%s = %v, want the number INFO reports under that key", k, doc.Server[k])
		}
	}
	if t.Failed() {
		return
	}
	// The SET ran on its worker (ops) or on its connection (direct_writes).
	if doc.Server["total_commands_processed"].(float64) < 1 || doc.Store.Aggregate["ops"].(float64)+doc.Store.Aggregate["direct_writes"].(float64) < 1 {
		t.Errorf("/metrics reports no traffic: server %v, store aggregate %v", doc.Server, doc.Store.Aggregate)
	}
}
