package server

import (
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"p2kvs/internal/core"
	"p2kvs/internal/histogram"
	"p2kvs/internal/vfs"
)

// Config configures a Server.
type Config struct {
	// Addr is the TCP listen address for ListenAndServe, e.g.
	// "127.0.0.1:6380".
	Addr string
	// Store is the p2KVS store the server fronts. Required. The server
	// owns its lifecycle from Shutdown on: a graceful drain ends with
	// Store.Close.
	Store *core.Store
	// CommandTimeout bounds each store call (a command's, or a run's)
	// with a context deadline; expiry surfaces to the client as a
	// -TIMEOUT reply. Zero means no per-command deadline.
	CommandTimeout time.Duration
	// MaxConns caps concurrent connections (default 1024). The accept
	// loop blocks when the cap is reached — backpressure at the listener
	// instead of unbounded goroutine growth.
	MaxConns int
	// ConnIdleTimeout closes a connection that sends no command for this
	// long, so abandoned sockets cannot pin the MaxConns semaphore
	// forever. Zero disables the idle check.
	ConnIdleTimeout time.Duration
	// WriteTimeout bounds each reply flush; a client that stops reading
	// (filling its receive window) is disconnected instead of wedging the
	// serving goroutine. Zero disables the write deadline.
	WriteTimeout time.Duration
	// DebugAddr, when non-empty, starts an HTTP listener serving
	// /metrics (JSON), /debug/vars (expvar) and /debug/pprof.
	DebugAddr string
	// CheckpointDir is the backup set BGSAVE writes into. Empty disables
	// BGSAVE (the command replies with an error).
	CheckpointDir string
	// CheckpointFS is the filesystem holding CheckpointDir; nil means the
	// host filesystem. Tests point it at an in-memory FS.
	CheckpointFS vfs.FS
	// ReplDir is the replication working directory: the primary stages
	// full-sync checkpoint images in ReplDir/sync, and a replica keeps
	// its received images and its cursor state file (REPLSTATE) there.
	// Empty disables full-sync serving and the replica role.
	ReplDir string
	// ReplFS is the filesystem holding ReplDir; nil means the host
	// filesystem. Tests point it at an in-memory FS.
	ReplFS vfs.FS
	// RestoreStore rebuilds the serving store from a received full-sync
	// image (a verified checkpoint set at dir on fs). The server closes
	// the old store before calling it, so a host-filesystem callback may
	// rebuild the data directory in place. Required for the replica role
	// (REPLICAOF / -replicaof); p2kvs.RestoreReplica builds it.
	RestoreStore func(fs vfs.FS, dir string) (*core.Store, error)
	// ReplicaOf, when non-empty ("host:port"), starts the server as a
	// replica of that primary (equivalent to an immediate REPLICAOF).
	ReplicaOf string
	// Logf receives server logs; nil discards them.
	Logf func(format string, args ...any)
}

// replFS resolves the replication filesystem (host by default).
func (c Config) replFS() vfs.FS {
	if c.ReplFS != nil {
		return c.ReplFS
	}
	return vfs.NewOS()
}

func (c Config) withDefaults() Config {
	if c.MaxConns <= 0 {
		c.MaxConns = 1024
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// latency-tracked command classes, by verb; INFO and /metrics name them in
// lower case. Commands outside the set land in "OTHER".
var latCommands = []string{"GET", "SET", "DEL", "MGET", "MSET", "SCAN", "INFO", "PING", "SCRUB", "OTHER"}

// serverStats is the server-side counter block surfaced by INFO and
// /metrics.
type serverStats struct {
	accepted      atomic.Int64 // connections accepted over the lifetime
	active        atomic.Int64 // connections currently open
	commands      atomic.Int64 // commands processed
	pipelines     atomic.Int64 // read windows processed
	coalescedSets atomic.Int64 // write ops committed by a multi-op WriteCtx batch
	coalescedGets atomic.Int64 // keys resolved by a multi-key MultiGetCtx
	loadshed      atomic.Int64 // -LOADSHED replies (admission control)
	timeouts      atomic.Int64 // -TIMEOUT replies (deadline expiry)
	unknown       atomic.Int64 // unknown commands
	protoErrors   atomic.Int64 // protocol errors (connection then closed)
	panics        atomic.Int64 // per-connection panics recovered (conn closed, server kept serving)
	idleClosed    atomic.Int64 // connections closed by ConnIdleTimeout

	corruptionReplies atomic.Int64 // -CORRUPTION replies (at-rest damage surfaced to a client)

	lat map[string]*histogram.H // per-command latency, fixed key set
}

func newServerStats() *serverStats {
	st := &serverStats{lat: make(map[string]*histogram.H, len(latCommands))}
	for _, c := range latCommands {
		st.lat[c] = &histogram.H{}
	}
	return st
}

// latFor returns the latency histogram for a verb (cmdName).
func (st *serverStats) latFor(name string) *histogram.H {
	if h, ok := st.lat[name]; ok {
		return h
	}
	return st.lat["OTHER"]
}

// Server is the RESP front-end.
type Server struct {
	cfg Config
	// storeP is the serving store. It is a swappable pointer because a
	// replica's full sync replaces the whole store: the manager closes
	// the old one, restores the received image, and swaps the new store
	// in. Handlers load it once per command via store().
	storeP atomic.Pointer[core.Store]
	stats  *serverStats
	repl   *replState

	lis   net.Listener
	debug *debugListener

	mu    sync.Mutex
	conns map[*conn]struct{}

	sem    chan struct{} // connection-cap semaphore
	connWG sync.WaitGroup

	draining   atomic.Bool
	drainCh    chan struct{} // closed when Shutdown begins
	shutdownCh chan struct{} // closed when a client issues SHUTDOWN
	sigOnce    sync.Once
	downOnce   sync.Once
	downErr    error

	// BGSAVE and RESHARD each run one job at a time in the background:
	// acknowledged immediately, the last failure surfaced in INFO so an
	// unattended run cannot fail silently (a reshard's progress is in
	// RESHARD STATUS and INFO's # Reshard section besides).
	save, resharding bgJob

	start time.Time
}

// bgJob is a single-flight background task that remembers how its last
// run ended.
type bgJob struct {
	running atomic.Bool
	wg      sync.WaitGroup
	mu      sync.Mutex
	lastErr error
}

// start runs fn in the background and logs its outcome under what; it
// returns false, without running fn, while the previous run is in flight.
func (j *bgJob) start(logf func(string, ...any), what string, fn func() error) bool {
	if !j.running.CompareAndSwap(false, true) {
		return false
	}
	j.wg.Add(1)
	go func() {
		defer j.wg.Done()
		defer j.running.Store(false)
		err := fn()
		j.mu.Lock()
		j.lastErr = err
		j.mu.Unlock()
		if err != nil {
			logf("p2kvs-server: %s failed: %v", what, err)
		} else {
			logf("p2kvs-server: %s complete", what)
		}
	}()
	return true
}

func (j *bgJob) lastError() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.lastErr
}

// bgsave starts a background checkpoint into cfg.CheckpointDir. It
// returns false when one is already running.
func (s *Server) bgsave() bool {
	fs := s.cfg.CheckpointFS
	if fs == nil {
		fs = vfs.NewOS()
	}
	return s.save.start(s.cfg.Logf, "background save", func() error {
		_, err := s.store().Checkpoint(fs, s.cfg.CheckpointDir)
		return err
	})
}

// reshard starts an online reshard to n workers in the background. It
// returns false when one is already running.
func (s *Server) reshard(n int) bool {
	return s.resharding.start(s.cfg.Logf, fmt.Sprintf("reshard to %d workers", n), func() error {
		return s.store().Reshard(context.Background(), n)
	})
}

// New builds a Server; call Serve or ListenAndServe to run it.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:        cfg,
		stats:      newServerStats(),
		conns:      make(map[*conn]struct{}),
		sem:        make(chan struct{}, cfg.MaxConns),
		drainCh:    make(chan struct{}),
		shutdownCh: make(chan struct{}),
		start:      time.Now(),
	}
	s.storeP.Store(cfg.Store)
	s.repl = newReplState(s)
	return s
}

// store returns the current serving store. Handlers call it once per
// command and use the returned pointer throughout, so a concurrent
// full-sync swap can at worst fail their in-flight command with
// ErrClosed — never dereference nil.
func (s *Server) store() *core.Store { return s.storeP.Load() }

// Addr reports the bound listen address (useful with ":0").
func (s *Server) Addr() net.Addr {
	if s.lis == nil {
		return nil
	}
	return s.lis.Addr()
}

// DebugAddr reports the bound debug-HTTP address, or nil.
func (s *Server) DebugAddr() net.Addr {
	if s.debug == nil {
		return nil
	}
	return s.debug.lis.Addr()
}

// ShutdownSignal fires when a client issues the SHUTDOWN command. The
// process owner listens on it alongside OS signals and then calls
// Shutdown.
func (s *Server) ShutdownSignal() <-chan struct{} { return s.shutdownCh }

func (s *Server) signalShutdown() {
	s.sigOnce.Do(func() { close(s.shutdownCh) })
}

// ListenAndServe listens on cfg.Addr (and cfg.DebugAddr when set) and
// serves until Shutdown. It returns nil after a graceful shutdown.
func (s *Server) ListenAndServe() error {
	lis, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	return s.Serve(lis)
}

// Serve accepts connections on lis until Shutdown closes it. Each
// connection gets one goroutine; the MaxConns semaphore is acquired
// *before* Accept so a saturated server stops pulling from the listen
// backlog (kernel-level backpressure) instead of accepting and parking.
func (s *Server) Serve(lis net.Listener) error {
	s.lis = lis
	// Shutdown may have run before the listener was stored (it closes
	// s.lis, which was still nil); re-check so Accept cannot block forever.
	if s.draining.Load() {
		lis.Close()
		return nil
	}
	if s.cfg.DebugAddr != "" && s.debug == nil {
		d, err := startDebug(s, s.cfg.DebugAddr)
		if err != nil {
			lis.Close()
			return err
		}
		s.debug = d
	}
	if s.cfg.ReplicaOf != "" {
		if err := s.repl.startReplica(s.cfg.ReplicaOf); err != nil {
			lis.Close()
			return err
		}
	}
	s.cfg.Logf("p2kvs-server: serving on %s", lis.Addr())
	for {
		s.sem <- struct{}{}
		nc, err := lis.Accept()
		if err != nil {
			<-s.sem
			if s.draining.Load() {
				return nil
			}
			return err
		}
		if s.draining.Load() {
			nc.Close()
			<-s.sem
			continue
		}
		s.stats.accepted.Add(1)
		s.stats.active.Add(1)
		c := newConn(s, nc)
		s.mu.Lock()
		s.conns[c] = struct{}{}
		s.mu.Unlock()
		s.connWG.Add(1)
		go func() {
			defer func() {
				s.mu.Lock()
				delete(s.conns, c)
				s.mu.Unlock()
				s.stats.active.Add(-1)
				s.connWG.Done()
				<-s.sem
			}()
			// Panic isolation: a bug triggered by one client's input costs
			// that client its connection, not the whole server. Registered
			// after the bookkeeping defer so the semaphore and counters are
			// still released on the panic path.
			defer func() {
				if r := recover(); r != nil {
					s.stats.panics.Add(1)
					s.cfg.Logf("p2kvs-server: panic serving %s (connection closed): %v", nc.RemoteAddr(), r)
					nc.Close()
				}
			}()
			c.serve()
		}()
	}
}

// Shutdown drains gracefully: stop accepting, let every connection
// finish the pipeline window it is processing (all its replies are
// written and flushed), close the connections, then close the store. The
// context bounds the connection drain; on expiry remaining connections
// are closed hard and their in-flight commands fail as the store shuts
// down. Safe to call once; later calls return the first result.
func (s *Server) Shutdown(ctx context.Context) error {
	s.downOnce.Do(func() { s.downErr = s.shutdown(ctx) })
	return s.downErr
}

func (s *Server) shutdown(ctx context.Context) error {
	s.draining.Store(true)
	close(s.drainCh)
	// Stop the replica manager first: it applies into the store that is
	// about to close, and its stream connection must not race the drain.
	s.repl.stopReplica()
	if s.lis != nil {
		s.lis.Close()
	}
	// Kick idle connections out of their blocking first read; busy ones
	// observe the draining flag after finishing their current window.
	s.mu.Lock()
	for c := range s.conns {
		c.beginDrain()
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.connWG.Wait()
		close(done)
	}()
	var drainErr error
	select {
	case <-done:
	case <-ctx.Done():
		drainErr = ctx.Err()
		s.mu.Lock()
		for c := range s.conns {
			c.nc.Close()
		}
		s.mu.Unlock()
	}
	if s.debug != nil {
		s.debug.close()
	}
	// A background save still writing its image must finish before the
	// store closes underneath it; likewise an in-flight reshard runs to
	// completion (or abort) so the committed topology is never torn by
	// the close.
	s.save.wg.Wait()
	s.resharding.wg.Wait()
	s.cfg.Logf("p2kvs-server: drained, closing store")
	if err := s.store().Close(); err != nil && drainErr == nil {
		drainErr = err
	}
	return drainErr
}
