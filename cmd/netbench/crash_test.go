package main

import (
	"errors"
	"net"
	"os"
	"syscall"
	"testing"
)

// stubServerEnv makes the test binary, started as a torture's server, a
// stand-in that answers every read with +PONG on its -addr until killed.
const stubServerEnv = "NETBENCH_TEST_STUB_SERVER"

func TestMain(m *testing.M) {
	if os.Getenv(stubServerEnv) != "" {
		stubServer(os.Args[1:])
		return
	}
	os.Exit(m.Run())
}

func stubServer(args []string) {
	var addr string
	for i := 0; i+1 < len(args); i++ {
		if args[i] == "-addr" {
			addr = args[i+1]
		}
	}
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		os.Exit(3)
	}
	for {
		c, err := lis.Accept()
		if err != nil {
			os.Exit(3)
		}
		go func() {
			buf := make([]byte, 512)
			for {
				if _, err := c.Read(buf); err != nil {
					c.Close()
					return
				}
				c.Write([]byte("+PONG\r\n"))
			}
		}()
	}
}

var errExited = errors.New("exited")

// TestFatalKillsEveryServer: a torture that fails exits without running its
// deferred kills, so the fatal path itself must SIGKILL and reap every server
// the harness started. Two stand-in servers run, the harness fails, and
// neither process may outlive it.
func TestFatalKillsEveryServer(t *testing.T) {
	t.Setenv(stubServerEnv, "1")
	var exitErr error
	h := &harness{
		crashConfig: crashConfig{serverBin: os.Args[0], dir: t.TempDir(), mode: "commit"},
		exit:        func(err error) { exitErr = err; panic(errExited) },
	}
	t.Cleanup(func() {
		for _, n := range h.nodes {
			n.kill()
		}
	})
	var pids []int
	for _, name := range []string{"primary", "replica"} {
		n := h.newNode(name)
		n.start()
		pids = append(pids, n.cmd.Process.Pid)
	}
	h.newNode("idle") // made but never started: nothing to kill
	func() {
		defer func() {
			if r := recover(); r != errExited {
				panic(r)
			}
		}()
		h.fatalf("VERIFICATION FAILED")
	}()
	if exitErr == nil || exitErr.Error() != "crash: VERIFICATION FAILED" {
		t.Fatalf("exit called with %v", exitErr)
	}
	for _, pid := range pids {
		if err := syscall.Kill(pid, 0); !errors.Is(err, syscall.ESRCH) {
			t.Errorf("server pid %d outlived the fatal exit: kill(pid, 0) = %v", pid, err)
		}
	}
}
