package server

import (
	"fmt"
	"strings"
	"time"

	"p2kvs/internal/kv"
	"p2kvs/internal/stats"
)

// snapshot is the server's own counters and gauges under their INFO key
// names: INFO renders each info group under its section header and
// /metrics serves the struct as its "server" document.
type snapshot struct {
	UptimeSeconds int64  `json:"uptime_seconds" info:"Server"`
	TCPAddr       string `json:"tcp_addr,omitempty" info:"Server"`
	Workers       int    `json:"workers" info:"Server"`

	ConnectedClients int64 `json:"connected_clients" info:"Clients"`
	TotalConnections int64 `json:"total_connections_received" info:"Clients"`
	MaxClients       int   `json:"maxclients" info:"Clients"`

	Commands       int64 `json:"total_commands_processed" info:"Stats"`
	Pipelines      int64 `json:"pipelines_processed" info:"Stats"`
	CoalescedSets  int64 `json:"coalesced_set_ops" info:"Stats"`
	CoalescedGets  int64 `json:"coalesced_get_ops" info:"Stats"`
	Loadshed       int64 `json:"loadshed_replies" info:"Stats"`
	Timeouts       int64 `json:"timeout_replies" info:"Stats"`
	Unknown        int64 `json:"unknown_commands" info:"Stats"`
	ProtocolErrors int64 `json:"protocol_errors" info:"Stats"`

	CorruptionReplies int64 `json:"corruption_replies" info:"Robustness"`
	PanicsRecovered   int64 `json:"conn_panics_recovered" info:"Robustness"`
	IdleClosed        int64 `json:"conn_idle_closed" info:"Robustness"`

	Saving     bool `json:"store_checkpoint_in_progress" info:"Persistence"`
	Resharding bool `json:"reshard_in_progress" info:"Reshard"`

	FullSyncsServed    int64 `json:"repl_full_syncs_served" info:"Replication"`
	PartialSyncsServed int64 `json:"repl_partial_syncs_served" info:"Replication"`
	// Replica is the tail of # Replication, after the per-link lines.
	FullSyncs    int64 `json:"replica_full_syncs" info:"Replica"`
	PartialSyncs int64 `json:"replica_partial_syncs" info:"Replica"`
}

func (s *Server) snapshot() *snapshot {
	st, rs := s.stats, s.repl
	sn := &snapshot{
		UptimeSeconds:      int64(time.Since(s.start).Seconds()),
		Workers:            s.store().Workers(),
		ConnectedClients:   st.active.Load(),
		TotalConnections:   st.accepted.Load(),
		MaxClients:         s.cfg.MaxConns,
		Commands:           st.commands.Load(),
		Pipelines:          st.pipelines.Load(),
		CoalescedSets:      st.coalescedSets.Load(),
		CoalescedGets:      st.coalescedGets.Load(),
		Loadshed:           st.loadshed.Load(),
		Timeouts:           st.timeouts.Load(),
		Unknown:            st.unknown.Load(),
		ProtocolErrors:     st.protoErrors.Load(),
		CorruptionReplies:  st.corruptionReplies.Load(),
		PanicsRecovered:    st.panics.Load(),
		IdleClosed:         st.idleClosed.Load(),
		Saving:             s.save.running.Load(),
		Resharding:         s.resharding.running.Load(),
		FullSyncsServed:    rs.fullSyncsServed.Load(),
		PartialSyncsServed: rs.partialSyncsServed.Load(),
		FullSyncs:          rs.fullSyncsDone.Load(),
		PartialSyncs:       rs.partialSyncsDone.Load(),
	}
	if s.lis != nil {
		sn.TCPAddr = s.lis.Addr().String()
	}
	return sn
}

// errLine appends an INFO line carrying an error's text, if there is one.
func errLine(b *strings.Builder, key string, err error) {
	if err != nil {
		fmt.Fprintf(b, "%s:%s\r\n", key, strings.ReplaceAll(err.Error(), "\r\n", " "))
	}
}

// infoText renders the INFO reply: redis-style "key:value" lines in
// sections, every plain counter generated from the tagged stats structs
// (internal/stats) — the numbers /metrics serves as JSON. Only computed
// and conditional lines are written by hand.
func (s *Server) infoText() string {
	var b strings.Builder
	st := s.store()
	snap, sv := st.StatsSnapshot(), s.snapshot()
	agg := &snap.Aggregate
	section := func(name string) { b.WriteString("# " + name + "\r\n") }

	for _, name := range []string{"Server", "Clients", "Stats"} {
		section(name)
		stats.Lines(&b, sv, "", name)
	}

	section("Commandstats")
	for _, name := range latCommands {
		sum := s.stats.lat[name].Summary()
		if sum.Count == 0 {
			continue
		}
		fmt.Fprintf(&b, "cmdstat_%s:calls=%d,usec_mean=%.1f,usec_p50=%.1f,usec_p95=%.1f,usec_p99=%.1f,usec_max=%.1f\r\n",
			name, sum.Count, sum.MeanUs, sum.P50Us, sum.P95Us, sum.P99Us, sum.MaxUs)
	}

	section("Store")
	stats.Lines(&b, agg, "store_", "Store")

	section("Cache")
	stats.Lines(&b, &snap, "", "Cache")

	section("Robustness")
	degraded := 0
	if agg.State == kv.StateReadOnly {
		degraded = 1
	}
	fmt.Fprintf(&b, "store_degraded:%d\r\n", degraded)
	stats.Lines(&b, agg, "store_", "Robustness")
	ss := st.ScrubStatus()
	fmt.Fprintf(&b, "scrub_passes:%d\r\n", ss.Passes)
	stats.Lines(&b, ss.Result, "scrub_last_", "")
	fmt.Fprintf(&b, "scrub_last_finished_unix:%d\r\n", ss.FinishedUnix)
	stats.Lines(&b, sv, "", "Robustness")

	section("Persistence")
	stats.Lines(&b, &snap, "", "Persistence")
	stats.Lines(&b, sv, "", "Persistence")
	stats.Lines(&b, agg, "store_", "Persistence")
	errLine(&b, "store_last_checkpoint_error", s.save.lastError())

	section("Reshard")
	stats.Lines(&b, sv, "", "Reshard")
	stats.Lines(&b, snap.Reshard, "", "")
	errLine(&b, "reshard_last_run_error", s.resharding.lastError())

	section("Replication")
	s.repl.infoSection(&b, st, &snap, sv)
	return b.String()
}
