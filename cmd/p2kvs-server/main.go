// Command p2kvs-server serves a p2KVS store over the Redis wire protocol
// (RESP2), so redis-cli and stock Redis clients can drive the accessing
// layer directly. Pipelined GET runs are coalesced into one store read and
// single-key SET/DEL runs into one write per shard, each command answered
// on its own (a pipeline keeps order, not atomicity); a multi-key MSET or
// DEL commits atomically. SIGTERM/SIGINT (or a client SHUTDOWN command)
// triggers a graceful drain: stop accepting, finish in-flight pipelines,
// flush every reply, then close the store.
//
// Example:
//
//	p2kvs-server -addr 127.0.0.1:6380 -dir /tmp/p2kvs -workers 8 \
//	             -debug_addr 127.0.0.1:6381 -cmd_timeout 2s
//	redis-cli -p 6380 set hello world
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"p2kvs"
	"p2kvs/internal/loadgen"
	"p2kvs/internal/server"
)

func main() {
	var (
		addr         = flag.String("addr", "127.0.0.1:6380", "TCP listen address")
		debugAddr    = flag.String("debug_addr", "", "HTTP debug listen address (/metrics, /debug/pprof); empty disables")
		cmdTimeout   = flag.Duration("cmd_timeout", 0, "per-command deadline (0 = none)")
		maxConns     = flag.Int("max_conns", 1024, "max concurrent client connections")
		idleTimeout  = flag.Duration("conn_idle_timeout", 0, "close connections idle for this long (0 = never)")
		writeTimeout = flag.Duration("conn_write_timeout", 0, "per-flush write deadline for slow clients (0 = none)")
		ckptDir      = flag.String("checkpoint_dir", "", "backup set BGSAVE writes into; empty disables BGSAVE. Doubles as -repair_from when that is unset")
		replicaOf    = flag.String("replicaof", "", "start as a read-only replica of a primary at host:port (also settable at runtime via REPLICAOF); implies -repl_backlog -1")
		replDir      = flag.String("repl_dir", "", "replication working directory for full-sync images and replica cursor state (default <dir>-repl when replication is enabled); implies -repl_backlog -1")
	)
	// The store-shaping flags (-dir, -engine, -workers, -wal_sync, …) are
	// declared once, in loadgen, and shared with dbbench and p2kvs-cli.
	// -drain_timeout bounds the whole graceful shutdown here: connections,
	// then the store's queues.
	buildOpts := loadgen.StoreFlags(flag.CommandLine, p2kvs.Options{
		Dir: "p2kvs-server-db", Workers: 8, Admission: p2kvs.AdmitReject, DrainTimeout: 30 * time.Second,
	})
	flag.Parse()
	logger := log.New(os.Stderr, "", log.LstdFlags|log.Lmicroseconds)

	storeOpts, err := buildOpts()
	if err != nil {
		fmt.Fprintln(os.Stderr, "p2kvs-server:", err)
		os.Exit(2)
	}
	if storeOpts.RepairFrom == "" {
		// Repairs draw from the newest backup the server itself has taken.
		storeOpts.RepairFrom = *ckptDir
	}
	if storeOpts.ReplBacklogBytes == 0 && (*replicaOf != "" || *replDir != "") {
		storeOpts.ReplBacklogBytes = -1 // default retention
	}
	rdir := *replDir
	if rdir == "" && storeOpts.ReplBacklogBytes != 0 {
		rdir = storeOpts.Dir + "-repl"
	}

	store, err := p2kvs.Open(storeOpts)
	if err != nil {
		logger.Fatalf("p2kvs-server: open store: %v", err)
	}

	cfg := server.Config{
		Addr:            *addr,
		Store:           store,
		CommandTimeout:  *cmdTimeout,
		MaxConns:        *maxConns,
		ConnIdleTimeout: *idleTimeout,
		WriteTimeout:    *writeTimeout,
		DebugAddr:       *debugAddr,
		CheckpointDir:   *ckptDir,
		Logf:            logger.Printf,
	}
	if storeOpts.ReplBacklogBytes != 0 {
		cfg.ReplDir = rdir
		cfg.ReplicaOf = *replicaOf
		cfg.RestoreStore = p2kvs.RestoreReplica(storeOpts)
	}
	srv := server.New(cfg)

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.ListenAndServe() }()

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGINT, syscall.SIGTERM)
	select {
	case sig := <-sigCh:
		logger.Printf("p2kvs-server: received %s, draining", sig)
	case <-srv.ShutdownSignal():
		logger.Printf("p2kvs-server: SHUTDOWN command received, draining")
	case err := <-serveErr:
		logger.Fatalf("p2kvs-server: serve: %v", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), storeOpts.DrainTimeout)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		logger.Fatalf("p2kvs-server: shutdown: %v", err)
	}
	if err := <-serveErr; err != nil {
		logger.Fatalf("p2kvs-server: serve: %v", err)
	}
	logger.Printf("p2kvs-server: clean shutdown")
}
