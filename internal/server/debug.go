package server

import (
	"encoding/json"
	"expvar"
	"net"
	"net/http"
	"net/http/pprof"
	"strings"

	"p2kvs/internal/core"
	"p2kvs/internal/histogram"
)

// debugListener is the optional HTTP side-channel: JSON metrics for
// scrapers, expvar, and pprof for live profiling.
type debugListener struct {
	lis net.Listener
	srv *http.Server
}

// metricsPayload is the /metrics JSON schema: the server's snapshot under
// its INFO key names, per-command latency, and the store's stats document.
type metricsPayload struct {
	Server   *snapshot                    `json:"server"`
	Commands map[string]histogram.Summary `json:"commands"`
	Store    core.StatsSnapshot           `json:"store"`
}

func (s *Server) metricsSnapshot() metricsPayload {
	cmds := make(map[string]histogram.Summary, len(latCommands))
	for _, name := range latCommands {
		if sum := s.stats.lat[name].Summary(); sum.Count > 0 {
			cmds[strings.ToLower(name)] = sum
		}
	}
	return metricsPayload{Server: s.snapshot(), Commands: cmds, Store: s.store().StatsSnapshot()}
}

func startDebug(s *Server, addr string) (*debugListener, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(s.metricsSnapshot())
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	d := &debugListener{lis: lis, srv: &http.Server{Handler: mux}}
	go d.srv.Serve(lis)
	return d, nil
}

func (d *debugListener) close() {
	_ = d.srv.Close()
}
