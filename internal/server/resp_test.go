package server

import (
	"bytes"
	"errors"
	"io"
	"runtime"
	"strings"
	"testing"
	"time"

	"p2kvs/internal/raceflag"
)

func readAllCommands(t *testing.T, in string) ([][][]byte, error) {
	t.Helper()
	r := NewReader(strings.NewReader(in))
	var out [][][]byte
	for {
		cmd, err := r.ReadCommand()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, cmd)
	}
}

func TestReadCommandMultibulk(t *testing.T) {
	cmds, err := readAllCommands(t, "*3\r\n$3\r\nSET\r\n$1\r\nk\r\n$5\r\nhello\r\n*1\r\n$4\r\nPING\r\n")
	if err != nil {
		t.Fatal(err)
	}
	if len(cmds) != 2 {
		t.Fatalf("got %d commands, want 2", len(cmds))
	}
	want := [][]string{{"SET", "k", "hello"}, {"PING"}}
	for i, cmd := range cmds {
		if len(cmd) != len(want[i]) {
			t.Fatalf("cmd %d: %d args, want %d", i, len(cmd), len(want[i]))
		}
		for j, a := range cmd {
			if string(a) != want[i][j] {
				t.Fatalf("cmd %d arg %d = %q, want %q", i, j, a, want[i][j])
			}
		}
	}
}

func TestReadCommandInline(t *testing.T) {
	cmds, err := readAllCommands(t, "PING\r\nSET  key   value\r\n\r\nGET key\n")
	if err != nil {
		t.Fatal(err)
	}
	if len(cmds) != 3 {
		t.Fatalf("got %d commands, want 3 (empty line skipped)", len(cmds))
	}
	if string(cmds[1][0]) != "SET" || string(cmds[1][1]) != "key" || string(cmds[1][2]) != "value" {
		t.Fatalf("inline split wrong: %q", cmds[1])
	}
	if string(cmds[2][1]) != "key" {
		t.Fatalf("LF-only line not handled: %q", cmds[2])
	}
}

func TestReadCommandEmptyArraySkipped(t *testing.T) {
	cmds, err := readAllCommands(t, "*0\r\n*1\r\n$4\r\nPING\r\n")
	if err != nil {
		t.Fatal(err)
	}
	if len(cmds) != 1 || string(cmds[0][0]) != "PING" {
		t.Fatalf("empty array not skipped: %v", cmds)
	}
}

func TestReadCommandBinarySafe(t *testing.T) {
	payload := []byte("a\r\nb\x00c")
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.WriteCommand([]byte("SET"), []byte("k"), payload)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	cmds, err := readAllCommands(t, buf.String())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cmds[0][2], payload) {
		t.Fatalf("binary payload corrupted: %q", cmds[0][2])
	}
}

func TestReadCommandProtocolErrors(t *testing.T) {
	cases := []string{
		"*2\r\n$3\r\nGET\r\n:5\r\n",     // non-bulk element
		"*-1\r\n",                       // negative multibulk in a command
		"*1\r\n$-1\r\n",                 // null bulk in a command
		"*1\r\n$3\r\nab\r\n\r\n",        // length mismatch
		"*1\r\n$999999999999999999999\r\n", // overflow
		"*x\r\n",                        // junk count
	}
	for _, in := range cases {
		_, err := readAllCommands(t, in)
		var perr ProtocolError
		if !errors.As(err, &perr) {
			t.Errorf("input %q: got err %v, want ProtocolError", in, err)
		}
	}
}

func TestReadCommandTruncatedIsIOError(t *testing.T) {
	_, err := readAllCommands(t, "*2\r\n$3\r\nGET\r\n$5\r\nab")
	var perr ProtocolError
	if err == nil || errors.As(err, &perr) {
		t.Fatalf("truncated input: got %v, want io error", err)
	}
}

func TestWriterFrames(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.WriteSimple("OK")
	w.WriteError("ERR boom")
	w.WriteInt(-42)
	w.WriteBulk(nil)
	w.WriteBulk([]byte("hi"))
	w.WriteBulkString("yo")
	w.WriteArrayHeader(2)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	want := "+OK\r\n-ERR boom\r\n:-42\r\n$-1\r\n$2\r\nhi\r\n$2\r\nyo\r\n*2\r\n"
	if buf.String() != want {
		t.Fatalf("frames = %q, want %q", buf.String(), want)
	}
}

func TestReadReplyRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.WriteSimple("PONG")
	w.WriteError("LOADSHED shard 3")
	w.WriteInt(7)
	w.WriteBulk([]byte("val"))
	w.WriteBulk(nil)
	w.WriteArrayHeader(2)
	w.WriteBulk([]byte("a"))
	w.WriteInt(1)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := NewReader(&buf)
	rep, _ := r.ReadReply()
	if rep.Kind != '+' || string(rep.Str) != "PONG" {
		t.Fatalf("simple: %v", rep)
	}
	rep, _ = r.ReadReply()
	if !rep.IsError() || !strings.HasPrefix(string(rep.Str), "LOADSHED") {
		t.Fatalf("error: %v", rep)
	}
	rep, _ = r.ReadReply()
	if rep.Kind != ':' || rep.Int != 7 {
		t.Fatalf("int: %v", rep)
	}
	rep, _ = r.ReadReply()
	if rep.Kind != '$' || string(rep.Str) != "val" {
		t.Fatalf("bulk: %v", rep)
	}
	rep, _ = r.ReadReply()
	if !rep.Nil {
		t.Fatalf("null bulk: %v", rep)
	}
	rep, err := r.ReadReply()
	if err != nil || rep.Kind != '*' || len(rep.Elems) != 2 || rep.Elems[1].Int != 1 {
		t.Fatalf("array: %v %v", rep, err)
	}
}

func TestParseInt(t *testing.T) {
	good := map[string]int64{"0": 0, "123": 123, "-7": -7, "9223372036854775807": 1<<63 - 1}
	for in, want := range good {
		n, err := parseInt([]byte(in))
		if err != nil || n != want {
			t.Errorf("parseInt(%q) = %d, %v; want %d", in, n, err, want)
		}
	}
	for _, in := range []string{"", "-", "1a", "99999999999999999999", "+3"} {
		if _, err := parseInt([]byte(in)); err == nil {
			t.Errorf("parseInt(%q): expected error", in)
		}
	}
}

// manyArgCommand is one multibulk command of nargs 8-byte arguments.
func manyArgCommand(nargs int) []byte {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	args := make([][]byte, nargs)
	for i := range args {
		args[i] = []byte("xxxxxxxx")
	}
	w.WriteCommand(args...)
	w.Flush()
	return buf.Bytes()
}

// Parsing a command is linear in its argument count: the shared argument
// buffer grows geometrically, so a legal 100,000-argument MSET costs about a
// hundred times a 1,000-argument one (110–150× on a 2-vCPU VM, cache effects
// included) and a handful of allocations. When every argument re-copied all
// earlier ones, 10,000 → 100,000 arguments went 356 ms → 10.7 s, 30× per
// tenfold, so ≥ 900× over this span. The bound sits well clear of both, and
// each timing is a best-of-fifteen from a collected heap, so other test
// binaries loading the box cannot push a linear parse past it.
func TestReadCommandManyArgsAllocs(t *testing.T) {
	parse := func(payload []byte, want int) time.Duration {
		best := time.Duration(1<<63 - 1)
		for i := 0; i < 15; i++ {
			runtime.GC()
			start := time.Now()
			cmd, err := NewReader(bytes.NewReader(payload)).ReadCommand()
			if d := time.Since(start); d < best {
				best = d
			}
			if err != nil || len(cmd) != want {
				t.Fatalf("n=%d: err=%v len=%d", want, err, len(cmd))
			}
		}
		return best
	}
	small, large := manyArgCommand(1_000), manyArgCommand(100_000)
	ts, tl := parse(small, 1_000), parse(large, 100_000)
	if ratio := float64(tl) / float64(ts); ratio >= 400 {
		t.Errorf("100k args %v vs 1k args %v: ratio %.1f, want < 400", tl, ts, ratio)
	}
	if raceflag.Enabled {
		return // the detector's shadow allocations are not the parser's
	}
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := NewReader(bytes.NewReader(large)).ReadCommand(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 64 {
		t.Errorf("100k-argument command: %.0f allocations, want <= 64", allocs)
	}
}
