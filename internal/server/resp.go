// Package server is the network serving layer: a RESP2-compatible
// (Redis wire protocol) TCP server over the p2KVS accessing layer, so
// stock Redis clients and redis-cli can drive the store. Pipelined
// client commands are merged by request type, as OBM merges a worker's
// queue, one layer up: a contiguous run of SETs, MSETs and DELs reaches
// the store as one WriteCtx batch, and a run of GETs and MGETs as one
// read (MultiGetCtx, or GetCtx for a lone key).
//
// This file implements the wire protocol itself: a command reader
// (multibulk "*N\r\n$len\r\n..." arrays and inline "SET k v\r\n"
// commands), a reply writer, and a reply reader used by clients
// (netbench, tests). The command reader parses into an arena the caller
// owns (cmdArena): the server's connections keep one per pipeline window
// and reuse it for the next (conn.go), so a steady pipeline parses without
// allocating; ReadCommand gives each command an arena of its own.
package server

import (
	"bufio"
	"fmt"
	"io"
	"slices"
)

// Protocol limits. Oversized frames fail with a ProtocolError instead of
// unbounded allocation, mirroring Redis' proto-max-bulk-len defence.
const (
	// MaxInlineLength bounds one inline command line.
	MaxInlineLength = 64 << 10
	// MaxBulkLength bounds one bulk-string argument.
	MaxBulkLength = 64 << 20
	// MaxCommandArgs bounds the element count of a multibulk command.
	MaxCommandArgs = 128 << 10
	// maxReplyDepth bounds nested arrays when parsing replies.
	maxReplyDepth = 16
)

// ProtocolError is a malformed-frame error; the server reports it to the
// client as "-ERR Protocol error: ..." and closes the connection.
type ProtocolError string

func (e ProtocolError) Error() string { return string(e) }

func protoErrf(format string, args ...any) ProtocolError {
	return ProtocolError(fmt.Sprintf(format, args...))
}

// Reader parses RESP frames from a stream.
type Reader struct {
	br *bufio.Reader
	// line is the scratch buffer for header lines and inline commands.
	line []byte
}

// NewReader wraps r in a RESP reader.
func NewReader(r io.Reader) *Reader {
	return &Reader{br: bufio.NewReaderSize(r, 32<<10)}
}

// Buffered reports the bytes already received but not yet parsed — the
// signal the server uses to keep draining a client's pipeline before
// flushing replies.
func (r *Reader) Buffered() int { return r.br.Buffered() }

// readLine reads one CRLF-terminated line (a lone LF is tolerated for
// inline/telnet use) into the scratch buffer, excluding the terminator.
func (r *Reader) readLine(limit int) ([]byte, error) {
	r.line = r.line[:0]
	for {
		b, err := r.br.ReadByte()
		if err != nil {
			return nil, err
		}
		if b == '\n' {
			line := r.line
			if n := len(line); n > 0 && line[n-1] == '\r' {
				line = line[:n-1]
			}
			return line, nil
		}
		if len(r.line) >= limit {
			return nil, protoErrf("too big inline request or header line")
		}
		r.line = append(r.line, b)
	}
}

// parseInt parses a decimal integer (with optional leading '-') without
// allocating. It rejects empty input, junk and overflow.
func parseInt(b []byte) (int64, error) {
	if len(b) == 0 {
		return 0, protoErrf("invalid integer")
	}
	neg := false
	if b[0] == '-' {
		neg = true
		b = b[1:]
		if len(b) == 0 {
			return 0, protoErrf("invalid integer")
		}
	}
	var n int64
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, protoErrf("invalid integer")
		}
		d := int64(c - '0')
		if n > (1<<63-1-d)/10 {
			return 0, protoErrf("integer overflow")
		}
		n = n*10 + d
	}
	if neg {
		n = -n
	}
	return n, nil
}

// readBulkBody reads n payload bytes plus the trailing CRLF into dst
// and returns the payload slice. dst grows geometrically: growing it to
// the exact size would re-copy every earlier argument of the command per
// argument.
func (r *Reader) readBulkBody(dst []byte, n int) ([]byte, error) {
	need := n + 2
	dst = slices.Grow(dst, need)
	body := dst[len(dst) : len(dst)+need]
	if _, err := io.ReadFull(r.br, body); err != nil {
		return nil, err
	}
	if body[n] != '\r' || body[n+1] != '\n' {
		return nil, protoErrf("bulk string not terminated by CRLF")
	}
	return dst[:len(dst)+n], nil
}

// cmdArena holds parsed commands: every command's argument headers are a
// slice of args, and every argument a slice of buf. Appending to either may
// move it to a larger array, but never moves what earlier commands point
// at, so every command read into an arena stays valid until its owner
// truncates the arena and reads over it.
type cmdArena struct {
	args [][]byte
	buf  []byte
}

// ReadCommand reads one client command: either a multibulk array of bulk
// strings or an inline (space-separated) line. Empty frames (bare
// newlines, "*0") are skipped, like Redis. The command is read into an
// arena of its own, so its argument slices are the caller's to keep.
func (r *Reader) ReadCommand() ([][]byte, error) {
	var a cmdArena
	return r.readCommand(&a)
}

// readCommand is ReadCommand into a: the command's argument headers are
// appended to a.args and their bytes to a.buf, and the command is the
// stretch of a.args it took. On error a may hold a partial command past
// the ones already read.
func (r *Reader) readCommand(a *cmdArena) ([][]byte, error) {
	for {
		first, err := r.br.ReadByte()
		if err != nil {
			return nil, err
		}
		start := len(a.args)
		if first != '*' {
			if err := r.br.UnreadByte(); err != nil {
				return nil, err
			}
			if err := r.readInline(a); err != nil {
				return nil, err
			}
			if len(a.args) == start {
				continue // empty line: ignore, per inline protocol
			}
			return a.args[start:len(a.args):len(a.args)], nil
		}
		header, err := r.readLine(MaxInlineLength)
		if err != nil {
			return nil, err
		}
		n, err := parseInt(header)
		if err != nil {
			return nil, err
		}
		if n < 0 || n > MaxCommandArgs {
			return nil, protoErrf("invalid multibulk length %d", n)
		}
		if n == 0 {
			continue
		}
		a.args = slices.Grow(a.args, int(n))
		for i := int64(0); i < n; i++ {
			prefix, err := r.br.ReadByte()
			if err != nil {
				return nil, err
			}
			if prefix != '$' {
				return nil, protoErrf("expected '$', got %q", prefix)
			}
			header, err := r.readLine(MaxInlineLength)
			if err != nil {
				return nil, err
			}
			sz, err := parseInt(header)
			if err != nil {
				return nil, err
			}
			if sz < 0 || sz > MaxBulkLength {
				return nil, protoErrf("invalid bulk length %d", sz)
			}
			buf, err := r.readBulkBody(a.buf, int(sz))
			if err != nil {
				return nil, err
			}
			from := len(a.buf)
			a.buf = buf
			a.args = append(a.args, buf[from:len(buf):len(buf)])
		}
		return a.args[start:len(a.args):len(a.args)], nil
	}
}

// readInline splits one inline command line on spaces/tabs into a. No
// quoting — inline is a telnet convenience, not the bulk path.
func (r *Reader) readInline(a *cmdArena) error {
	line, err := r.readLine(MaxInlineLength)
	if err != nil {
		return err
	}
	i := 0
	for i < len(line) {
		for i < len(line) && (line[i] == ' ' || line[i] == '\t') {
			i++
		}
		start := i
		for i < len(line) && line[i] != ' ' && line[i] != '\t' {
			i++
		}
		if i > start {
			from := len(a.buf)
			a.buf = append(a.buf, line[start:i]...)
			a.args = append(a.args, a.buf[from:len(a.buf):len(a.buf)])
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Reply parsing (client side: netbench, tests)
// ---------------------------------------------------------------------------

// Reply is one parsed RESP reply.
type Reply struct {
	// Kind is the RESP type byte: '+' simple string, '-' error,
	// ':' integer, '$' bulk string, '*' array.
	Kind byte
	// Str holds simple-string, error and bulk payloads.
	Str []byte
	// Int holds the integer payload.
	Int int64
	// Nil marks a null bulk ($-1) or null array (*-1).
	Nil bool
	// Elems holds array elements.
	Elems []Reply
}

// IsError reports whether the reply is an error reply.
func (rp Reply) IsError() bool { return rp.Kind == '-' }

// String renders the reply for logs and test failures.
func (rp Reply) String() string {
	switch rp.Kind {
	case '+', '-':
		return string(rp.Str)
	case ':':
		return fmt.Sprintf("%d", rp.Int)
	case '$':
		if rp.Nil {
			return "(nil)"
		}
		return string(rp.Str)
	case '*':
		if rp.Nil {
			return "(nil array)"
		}
		return fmt.Sprintf("array(%d)", len(rp.Elems))
	}
	return "(unknown)"
}

// ReadReply parses one reply frame.
func (r *Reader) ReadReply() (Reply, error) {
	return r.readReplyDepth(0)
}

func (r *Reader) readReplyDepth(depth int) (Reply, error) {
	if depth > maxReplyDepth {
		return Reply{}, protoErrf("reply nesting too deep")
	}
	kind, err := r.br.ReadByte()
	if err != nil {
		return Reply{}, err
	}
	line, err := r.readLine(MaxInlineLength)
	if err != nil {
		return Reply{}, err
	}
	switch kind {
	case '+', '-':
		return Reply{Kind: kind, Str: append([]byte(nil), line...)}, nil
	case ':':
		n, err := parseInt(line)
		if err != nil {
			return Reply{}, err
		}
		return Reply{Kind: kind, Int: n}, nil
	case '$':
		n, err := parseInt(line)
		if err != nil {
			return Reply{}, err
		}
		if n == -1 {
			return Reply{Kind: kind, Nil: true}, nil
		}
		if n < 0 || n > MaxBulkLength {
			return Reply{}, protoErrf("invalid bulk length %d", n)
		}
		body, err := r.readBulkBody(nil, int(n))
		if err != nil {
			return Reply{}, err
		}
		return Reply{Kind: kind, Str: body}, nil
	case '*':
		n, err := parseInt(line)
		if err != nil {
			return Reply{}, err
		}
		if n == -1 {
			return Reply{Kind: kind, Nil: true}, nil
		}
		if n < 0 || n > MaxCommandArgs {
			return Reply{}, protoErrf("invalid array length %d", n)
		}
		elems := make([]Reply, 0, min(int(n), 1024))
		for i := int64(0); i < n; i++ {
			e, err := r.readReplyDepth(depth + 1)
			if err != nil {
				return Reply{}, err
			}
			elems = append(elems, e)
		}
		return Reply{Kind: kind, Elems: elems}, nil
	default:
		return Reply{}, protoErrf("unknown reply type %q", kind)
	}
}

// ---------------------------------------------------------------------------
// Writing
// ---------------------------------------------------------------------------

// Writer emits RESP frames. Errors are sticky: the first write error is
// retained and every later call is a no-op, so command handlers can write
// unconditionally and check once at Flush.
type Writer struct {
	bw  *bufio.Writer
	err error
	num [24]byte // scratch for integer formatting
}

// NewWriter wraps w in a RESP writer.
func NewWriter(w io.Writer) *Writer {
	return &Writer{bw: bufio.NewWriterSize(w, 16<<10)}
}

// Flush pushes buffered frames to the connection and reports the first
// error encountered by any write since the last Flush.
func (w *Writer) Flush() error {
	if w.err != nil {
		return w.err
	}
	w.err = w.bw.Flush()
	return w.err
}

func (w *Writer) writeByte(b byte) {
	if w.err == nil {
		w.err = w.bw.WriteByte(b)
	}
}

func (w *Writer) write(p []byte) {
	if w.err == nil {
		_, w.err = w.bw.Write(p)
	}
}

func (w *Writer) writeString(s string) {
	if w.err == nil {
		_, w.err = w.bw.WriteString(s)
	}
}

func (w *Writer) crlf() { w.writeString("\r\n") }

func (w *Writer) writeInt(n int64) {
	neg := n < 0
	u := uint64(n)
	if neg {
		u = uint64(-n)
	}
	i := len(w.num)
	for {
		i--
		w.num[i] = byte('0' + u%10)
		u /= 10
		if u == 0 {
			break
		}
	}
	if neg {
		i--
		w.num[i] = '-'
	}
	w.write(w.num[i:])
}

// WriteSimple emits "+s\r\n".
func (w *Writer) WriteSimple(s string) {
	w.writeByte('+')
	w.writeString(s)
	w.crlf()
}

// WriteError emits "-msg\r\n". msg should start with an error code word
// (ERR, LOADSHED, TIMEOUT, ...), Redis style.
func (w *Writer) WriteError(msg string) {
	w.writeByte('-')
	w.writeString(msg)
	w.crlf()
}

// WriteInt emits ":n\r\n".
func (w *Writer) WriteInt(n int64) {
	w.writeByte(':')
	w.writeInt(n)
	w.crlf()
}

// WriteBulk emits a bulk string; nil emits the RESP2 null bulk "$-1\r\n".
func (w *Writer) WriteBulk(b []byte) {
	if b == nil {
		w.writeString("$-1\r\n")
		return
	}
	w.writeByte('$')
	w.writeInt(int64(len(b)))
	w.crlf()
	w.write(b)
	w.crlf()
}

// WriteBulkString emits a non-nil bulk string from a string.
func (w *Writer) WriteBulkString(s string) {
	w.writeByte('$')
	w.writeInt(int64(len(s)))
	w.crlf()
	w.writeString(s)
	w.crlf()
}

// WriteArrayHeader emits "*n\r\n"; the caller then writes n elements.
func (w *Writer) WriteArrayHeader(n int) {
	w.writeByte('*')
	w.writeInt(int64(n))
	w.crlf()
}

// WriteCommand emits a command as a multibulk array — the client side of
// ReadCommand, used by netbench and the tests.
func (w *Writer) WriteCommand(args ...[]byte) {
	w.WriteArrayHeader(len(args))
	for _, a := range args {
		w.writeByte('$')
		w.writeInt(int64(len(a)))
		w.crlf()
		w.write(a)
		w.crlf()
	}
}
