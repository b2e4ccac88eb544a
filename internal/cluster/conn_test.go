package cluster

import (
	"context"
	"net"
	"testing"
	"time"

	"p2kvs"
	"p2kvs/internal/server"
)

// serveAt runs a fresh in-process server on addr ("127.0.0.1:0" picks a
// port) and returns its address and a stop function that drops every
// client connection.
func serveAt(t *testing.T, addr string) (string, func()) {
	t.Helper()
	st, err := p2kvs.Open(p2kvs.Options{Dir: "db", InMemory: true, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(server.Config{Store: st})
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		srv.Serve(lis)
		close(done)
	}()
	return lis.Addr().String(), func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		<-done
	}
}

// TestConnRedialsOnce pins the client's reconnect contract: a cached
// connection the server dropped gets exactly one redial and resend; a
// server that is really gone surfaces as an error; and the next call
// after that dials afresh.
func TestConnRedialsOnce(t *testing.T) {
	addr, stop := serveAt(t, "127.0.0.1:0")
	c := NewConn(addr, time.Second)
	defer c.Close()
	if rep, err := c.Do(Cmd("SET", "a", "1")...); err != nil || rep.IsError() {
		t.Fatalf("SET on a fresh connection: %v %s", err, rep.String())
	}

	// Restart the server behind the cached connection: the stale socket
	// fails, the one redial reaches the new process.
	stop()
	_, stop = serveAt(t, addr)
	reps, err := c.Pipeline([][][]byte{Cmd("SET", "b", "2"), Cmd("GET", "b")})
	if err != nil {
		t.Fatalf("pipeline across a server restart: %v", err)
	}
	if got := string(reps[1].Str); got != "2" {
		t.Fatalf("GET b after redial = %q, want 2", got)
	}
	if rep, err := c.Do(Cmd("GET", "a")...); err != nil || !rep.Nil {
		t.Fatalf("GET a on the restarted (empty) server = %s, %v; want nil reply", rep.String(), err)
	}

	// Server gone: the redial fails and the error reaches the caller,
	// both on the stale connection and on the fresh dial after it.
	stop()
	for i := 0; i < 2; i++ {
		if _, err := c.Do([]byte("PING")); err == nil {
			t.Fatalf("call %d against a stopped server succeeded", i)
		}
	}

	_, stop = serveAt(t, addr)
	defer stop()
	if rep, err := c.Do([]byte("PING")); err != nil || rep.IsError() {
		t.Fatalf("PING after the server came back: %v %s", err, rep.String())
	}
}
