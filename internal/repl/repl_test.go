package repl

import (
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"testing"

	"p2kvs/internal/kv"
)

func ops(n int, tag string) []kv.BatchOp {
	out := make([]kv.BatchOp, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, kv.BatchOp{
			Kind:  kv.OpPut,
			Key:   []byte(fmt.Sprintf("%s-key-%04d", tag, i)),
			Value: []byte(fmt.Sprintf("%s-val-%04d", tag, i)),
		})
	}
	return out
}

func TestEncodeDecodeOpsRoundTrip(t *testing.T) {
	in := []kv.BatchOp{
		{Kind: kv.OpPut, Key: []byte("a"), Value: []byte("1")},
		{Kind: kv.OpDelete, Key: []byte("gone")},
		{Kind: kv.OpPut, Key: []byte(""), Value: []byte("")},
		{Kind: kv.OpPut, Key: bytes.Repeat([]byte("k"), 4096), Value: bytes.Repeat([]byte("v"), 9000)},
	}
	out, err := DecodeOps(EncodeOps(in))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(out) != len(in) {
		t.Fatalf("got %d ops, want %d", len(out), len(in))
	}
	for i := range in {
		if out[i].Kind != in[i].Kind || !bytes.Equal(out[i].Key, in[i].Key) || !bytes.Equal(out[i].Value, in[i].Value) {
			t.Fatalf("op %d mismatch: %+v != %+v", i, out[i], in[i])
		}
	}
	if got, err := DecodeOps(EncodeOps(nil)); err != nil || len(got) != 0 {
		t.Fatalf("empty round trip: %v %v", got, err)
	}
}

// TestEncodeOpsGolden pins the data-frame payload bytes: what the parent
// commit's hand-written encoder produced for kv's golden batch
// (kv/opcodec_test.go), so a replica built before the shared op codec still
// decodes this primary's stream.
func TestEncodeOpsGolden(t *testing.T) {
	const golden = "03" + "0105616c706861036f6e65020462657461010567616d6d6100"
	in := []kv.BatchOp{
		{Kind: kv.OpPut, Key: []byte("alpha"), Value: []byte("one")},
		{Kind: kv.OpDelete, Key: []byte("beta")},
		{Kind: kv.OpPut, Key: []byte("gamma")},
	}
	if got := hex.EncodeToString(EncodeOps(in)); got != golden {
		t.Fatalf("data-frame payload = %s\nwant                 %s", got, golden)
	}
	raw, _ := hex.DecodeString(golden)
	out, err := DecodeOps(raw)
	if err != nil || len(out) != 3 || string(out[0].Value) != "one" || out[1].Kind != kv.OpDelete {
		t.Fatalf("decode: %+v, %v", out, err)
	}
}

func TestEncodeOpsCopies(t *testing.T) {
	key := []byte("mutate-me")
	payload := EncodeOps([]kv.BatchOp{{Kind: kv.OpDelete, Key: key}})
	key[0] = 'X'
	out, err := DecodeOps(payload)
	if err != nil {
		t.Fatal(err)
	}
	if string(out[0].Key) != "mutate-me" {
		t.Fatalf("payload aliased caller buffer: %q", out[0].Key)
	}
}

func TestDecodeOpsRejects(t *testing.T) {
	valid := EncodeOps(ops(3, "r"))
	cases := map[string][]byte{
		"empty":           {},
		"truncated":       valid[:len(valid)-2],
		"trailing":        append(append([]byte{}, valid...), 0xff),
		"bad kind":        {1, 99, 1, 'k'},
		"huge op count":   {0xff, 0xff, 0xff, 0xff, 0xff, 0x0f},
		"truncated key":   {1, 1, 10, 'k'},
		"truncated value": {1, 1, 1, 'k', 10, 'v'},
	}
	for name, b := range cases {
		if _, err := DecodeOps(b); !errors.Is(err, ErrBadPayload) {
			t.Errorf("%s: want ErrBadPayload, got %v", name, err)
		}
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	frames := []Frame{
		{Kind: FrameData, Worker: 3, GSN: 42, Payload: EncodeOps(ops(5, "f"))},
		{Kind: FrameHeartbeat, Payload: EncodeCursors([]uint64{1, 2, 3})},
		{Kind: FrameAck, Payload: EncodeCursors([]uint64{0, 0})},
		{Kind: FrameFile, Payload: EncodeFile("inst-00/wal/000001.log", []byte("contents"))},
		{Kind: FrameManifest, Payload: []byte("p2kvs-checkpoint-1\n")},
	}
	for _, f := range frames {
		if err := WriteFrame(&buf, f); err != nil {
			t.Fatal(err)
		}
	}
	for i, want := range frames {
		got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got.Kind != want.Kind || got.Worker != want.Worker || got.GSN != want.GSN || !bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("frame %d mismatch: %+v != %+v", i, got, want)
		}
	}
	if _, err := ReadFrame(&buf); err == nil {
		t.Fatal("expected EOF at stream end")
	}
}

// TestFrameRejectionCatalogue is the deterministic corruption sweep: for
// a known-good two-frame stream, every single-bit flip and every
// truncation point must yield a typed rejection (ErrFrameCorrupt or an
// unexpected-EOF), never a silently wrong frame and never a panic.
func TestFrameRejectionCatalogue(t *testing.T) {
	var buf bytes.Buffer
	f1 := Frame{Kind: FrameData, Worker: 1, GSN: 7, Payload: EncodeOps(ops(2, "c"))}
	f2 := Frame{Kind: FrameHeartbeat, Payload: EncodeCursors([]uint64{7, 9})}
	if err := WriteFrame(&buf, f1); err != nil {
		t.Fatal(err)
	}
	if err := WriteFrame(&buf, f2); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	// Truncation at every boundary: the cut frame must fail with
	// ErrUnexpectedEOF (or clean EOF exactly at a frame boundary).
	firstLen := frameHeaderLen + len(f1.Payload)
	for cut := 0; cut < len(good); cut++ {
		r := bytes.NewReader(good[:cut])
		var err error
		for err == nil {
			_, err = ReadFrame(r)
		}
		okEOF := err.Error() == "EOF" && (cut == 0 || cut == firstLen)
		if !okEOF && err.Error() != "unexpected EOF" {
			t.Fatalf("cut at %d: want EOF class, got %v", cut, err)
		}
	}

	// Single-bit flips: every flip anywhere in the stream must surface as
	// ErrFrameCorrupt on the affected frame (a flip can never pass both
	// CRCs, and a corrupted length/kind is caught by the header CRC before
	// it can mis-frame the stream).
	for off := 0; off < len(good); off++ {
		for bit := 0; bit < 8; bit++ {
			mut := append([]byte(nil), good...)
			mut[off] ^= 1 << bit
			r := bytes.NewReader(mut)
			var sawErr error
			for i := 0; i < 3; i++ {
				f, err := ReadFrame(r)
				if err != nil {
					sawErr = err
					break
				}
				// Any frame that does decode must be byte-identical to one
				// of the originals (the flip landed in a frame we already
				// consumed... impossible on first iteration) — verify
				// payload integrity.
				want := f1
				if i == 1 {
					want = f2
				}
				if f.Kind != want.Kind || f.GSN != want.GSN || !bytes.Equal(f.Payload, want.Payload) {
					t.Fatalf("flip @%d.%d: frame %d decoded WRONG without error", off, bit, i)
				}
			}
			if sawErr == nil {
				t.Fatalf("flip @%d.%d: stream fully decoded despite corruption", off, bit)
			}
			if !errors.Is(sawErr, ErrFrameCorrupt) && sawErr.Error() != "unexpected EOF" {
				t.Fatalf("flip @%d.%d: want ErrFrameCorrupt/unexpected EOF, got %v", off, bit, sawErr)
			}
		}
	}
}

func TestBacklogSinceAndCovers(t *testing.T) {
	l := NewLog(2, 1<<20)
	l.Append(0, 1, ops(1, "a"))
	l.Append(1, 2, ops(1, "b"))
	l.Append(0, 3, ops(1, "c"))

	recs, err := l.Since(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[0].GSN != 1 || recs[1].GSN != 3 {
		t.Fatalf("Since(0,0) = %+v", recs)
	}
	recs, err = l.Since(0, 1)
	if err != nil || len(recs) != 1 || recs[0].GSN != 3 {
		t.Fatalf("Since(0,1) = %+v, %v", recs, err)
	}
	recs, err = l.Since(0, 3)
	if err != nil || len(recs) != 0 {
		t.Fatalf("Since(0,3) = %+v, %v", recs, err)
	}
	if !l.Covers([]uint64{0, 0}) || !l.Covers([]uint64{3, 2}) {
		t.Fatal("fresh log must cover cursors within [0, last]")
	}
	if l.Covers([]uint64{4, 2}) {
		t.Fatal("cursor beyond last must not be covered")
	}
	if l.Covers([]uint64{0}) {
		t.Fatal("wrong worker count must not be covered")
	}
}

func TestBacklogTrimAndOutOfWindow(t *testing.T) {
	l := NewLog(1, 2048)
	var g uint64
	for i := 0; i < 100; i++ {
		g++
		l.Append(0, g, ops(4, "t"))
	}
	st := l.Stats()
	if st.Bytes > 2048 {
		t.Fatalf("budget exceeded without pins: %d", st.Bytes)
	}
	if st.Trimmed == 0 {
		t.Fatal("expected trims")
	}
	if _, err := l.Since(0, 0); !errors.Is(err, ErrOutOfWindow) {
		t.Fatalf("want ErrOutOfWindow for trimmed cursor, got %v", err)
	}
	if l.Covers([]uint64{0}) {
		t.Fatal("trimmed cursor must not be covered")
	}
	// The retained tail must still be contiguous from start+1.
	recs, err := l.Since(0, l.LastGSN()[0]-1)
	if err != nil || len(recs) != 1 {
		t.Fatalf("tail read: %+v, %v", recs, err)
	}
}

// TestSlowReplicaPinNeverHoles is the satellite-1 guarantee: an attached
// replica pins its cursor, so however far it lags — and however small the
// byte budget — a partial sync from its acked cursor never hits a hole.
func TestSlowReplicaPinNeverHoles(t *testing.T) {
	l := NewLog(2, 1024) // tiny budget: would trim almost immediately
	cursors := l.Pin("replica-1")
	var g uint64
	for i := 0; i < 200; i++ {
		g++
		l.Append(int(g)%2, g, ops(4, "p"))
	}
	// Unpinned logs at this budget trim; the pinned one must retain
	// everything past the pin floors.
	for w := 0; w < 2; w++ {
		recs, err := l.Since(w, cursors[w])
		if err != nil {
			t.Fatalf("pinned worker %d: partial sync hit a hole: %v", w, err)
		}
		if len(recs) != 100 {
			t.Fatalf("pinned worker %d: got %d records, want 100", w, len(recs))
		}
		if !l.Covers(l.LastGSN()) {
			t.Fatal("last cursors must be covered")
		}
	}
	if l.Stats().Bytes <= 1024 {
		t.Fatal("expected pin to hold backlog past budget")
	}

	// The replica acks progress: Advance releases the acked prefix for
	// trimming (the still-unacked 50 records stay pinned past the budget).
	l.Advance("replica-1", []uint64{150, 150})
	if st := l.Stats(); st.Records != 50 {
		t.Fatalf("advance did not release acked tail: %+v", st)
	}
	if _, err := l.Since(0, 150); err != nil {
		t.Fatalf("acked cursor must stay in window: %v", err)
	}

	// Detach: the budget alone governs again.
	l.Unpin("replica-1")
	if st := l.Stats(); st.Pins != 0 || st.Bytes > 1024 {
		t.Fatalf("unpin: %+v", st)
	}
}

func TestPinSetAndAdvanceClamp(t *testing.T) {
	l := NewLog(1, 1<<20)
	for g := uint64(1); g <= 10; g++ {
		l.Append(0, g, ops(1, "s"))
	}
	l.Pin("r")
	// SetPin rewinds to a manifest watermark (full-sync bootstrap).
	l.SetPin("r", []uint64{4})
	if recs, err := l.Since(0, 4); err != nil || len(recs) != 6 {
		t.Fatalf("rewound pin: %v %d", err, len(recs))
	}
	// Advance never moves backward.
	l.Advance("r", []uint64{8})
	l.Advance("r", []uint64{2})
	l.Advance("r", []uint64{9})
	// Advancing an unknown pin is a no-op, not a panic.
	l.Advance("ghost", []uint64{1})
	l.SetPin("ghost", []uint64{1})
	l.Unpin("ghost")
}

func TestCursorCodecRoundTrip(t *testing.T) {
	for _, in := range [][]uint64{nil, {}, {0}, {1, 1 << 60, 42}} {
		out, err := DecodeCursors(EncodeCursors(in))
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != len(in) {
			t.Fatalf("len %d != %d", len(out), len(in))
		}
		for i := range in {
			if out[i] != in[i] {
				t.Fatalf("cursor %d: %d != %d", i, out[i], in[i])
			}
		}
	}
	for _, bad := range [][]byte{{}, {5, 1}, {0xff, 0xff, 0xff, 0xff, 0xff, 0xff}} {
		if _, err := DecodeCursors(bad); !errors.Is(err, ErrBadPayload) {
			t.Fatalf("want ErrBadPayload for %x, got %v", bad, err)
		}
	}
}

func TestFileCodecRoundTrip(t *testing.T) {
	name, content, err := DecodeFile(EncodeFile("inst-03/sst/000042.sst", []byte{0, 1, 2}))
	if err != nil || name != "inst-03/sst/000042.sst" || !bytes.Equal(content, []byte{0, 1, 2}) {
		t.Fatalf("%q %x %v", name, content, err)
	}
	if _, _, err := DecodeFile(EncodeFile("", nil)); !errors.Is(err, ErrBadPayload) {
		t.Fatalf("empty name must be rejected: %v", err)
	}
	if _, _, err := DecodeFile([]byte{200}); !errors.Is(err, ErrBadPayload) {
		t.Fatalf("truncated name must be rejected: %v", err)
	}
}

func TestNewIDUnique(t *testing.T) {
	a, b := NewID(), NewID()
	if len(a) != 40 || a == b {
		t.Fatalf("ids: %q %q", a, b)
	}
	if l := NewLog(1, 0); l.ID() == "" || l.Workers() != 1 {
		t.Fatal("log identity")
	}
}
