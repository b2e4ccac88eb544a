package server

import (
	"context"
	"net"
	"sync/atomic"
	"testing"
	"time"
)

// kickListener wraps every accepted connection in a raceConn.
type kickListener struct {
	net.Listener
	beforeArm func()
	kicked    chan struct{}
}

func (l *kickListener) Accept() (net.Conn, error) {
	nc, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &raceConn{Conn: nc, l: l}, nil
}

// raceConn forces the interleaving of the drain race: the connection's
// first SetReadDeadline — readWindow arming the idle deadline — is held
// until Shutdown's beginDrain kick (the second call) has landed, and only
// then takes effect, overwriting the kick.
type raceConn struct {
	net.Conn
	l     *kickListener
	calls atomic.Int32
}

func (c *raceConn) SetReadDeadline(t time.Time) error {
	switch c.calls.Add(1) {
	case 1:
		c.l.beforeArm()
		<-c.l.kicked
	case 2:
		defer close(c.l.kicked)
	}
	return c.Conn.SetReadDeadline(t)
}

// TestShutdownRacesIdleDeadline races Shutdown against an idle connection
// with ConnIdleTimeout set, in the one order that used to lose the kick:
// readWindow saw draining == false, Shutdown set the flag and kicked, then
// readWindow armed the idle deadline over the kick and the connection sat
// out the whole idle timeout (here: longer than the drain budget, so the
// drain was killed instead of finishing). The drain must finish well
// inside its budget, and the close must not count as an idle expiry.
func TestShutdownRacesIdleDeadline(t *testing.T) {
	const drainBudget = 3 * time.Second
	shutdownErr := make(chan error, 1)
	srv := make(chan *Server, 1)
	lis := &kickListener{kicked: make(chan struct{})}
	lis.beforeArm = func() {
		s := <-srv
		go func() {
			ctx, cancel := context.WithTimeout(context.Background(), drainBudget)
			defer cancel()
			shutdownErr <- s.Shutdown(ctx)
		}()
	}
	ts := startTestServerOn(t, 1, nil, nil, Config{ConnIdleTimeout: time.Minute},
		func(l net.Listener) net.Listener { lis.Listener = l; return lis })
	srv <- ts.srv
	dialTest(t, ts) // connects and then stays idle

	start := time.Now()
	select {
	case err := <-shutdownErr:
		if err != nil {
			t.Fatalf("graceful shutdown failed: %v", err)
		}
	case <-time.After(2 * drainBudget):
		t.Fatal("Shutdown did not return")
	}
	if took := time.Since(start); took > drainBudget/2 {
		t.Fatalf("drain took %v of a %v budget: the idle connection missed its kick", took, drainBudget)
	}
	if n := ts.srv.stats.idleClosed.Load(); n != 0 {
		t.Fatalf("drain kick counted as %d idle expiries", n)
	}
}
