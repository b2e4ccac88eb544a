package loadgen

import (
	"strings"
	"testing"
)

func TestVerifyAcceptsItsOwnValues(t *testing.T) {
	for _, size := range []int{0, 27, 28, 64, 128, 4096} {
		v := Value(42, 7, size)
		if want := max(size, 27); len(v) != want {
			t.Fatalf("len(Value(size=%d)) = %d, want %d", size, len(v), want)
		}
		seq, err := Verify(42, v, 5, 9)
		if err != nil || seq != 7 {
			t.Fatalf("Verify(size=%d) = %d, %v; want 7", size, seq, err)
		}
	}
	if !strings.HasPrefix(string(Value(3, 12, 64)), "s00000012|user000000000003|") {
		t.Fatalf("header = %q", Value(3, 12, 64)[:28])
	}
}

func TestVerifyRejects(t *testing.T) {
	good := Value(42, 7, 128)
	flip := func(at int) []byte {
		v := append([]byte(nil), good...)
		v[at] ^= 0x10
		return v
	}
	cases := []struct {
		name   string
		id     uint64
		v      []byte
		lo, hi int64
		want   string // substring of the error
	}{
		{"flipped padding byte", 42, flip(100), 7, 7, "padding corrupted"},
		{"flipped last byte", 42, flip(127), 7, 7, "padding corrupted"},
		{"flipped key byte", 42, flip(15), 7, 7, "key echo mismatch"},
		{"another key's value", 43, good, 7, 7, "key echo mismatch"},
		{"seq below the acked floor", 42, good, 8, 9, "outside [8, 9]"},
		{"seq above the highest attempted", 42, good, 0, 6, "outside [0, 6]"},
		{"truncated into the header", 42, good[:5], 7, 7, "no seq header"},
		{"not a codec value", 42, []byte("hello|world|"), 0, 9, "no seq header"},
		{"non-numeric seq", 42, []byte("sxx|user000000000042|"), 0, 9, "bad seq header"},
		{"empty", 42, nil, 0, 9, "no seq header"},
	}
	for _, c := range cases {
		_, err := Verify(c.id, c.v, c.lo, c.hi)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Verify = %v, want an error containing %q", c.name, err, c.want)
		}
	}
	// A flipped seq digit names a different write: caught by the window.
	if _, err := Verify(42, flip(8), 7, 7); err == nil {
		t.Error("flipped seq digit accepted")
	}
}
