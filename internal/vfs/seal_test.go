package vfs

import (
	"errors"
	"reflect"
	"testing"
)

type sealRecord struct {
	Name    string   `json:"name"`
	Cursors []uint64 `json:"cursors"`
}

// TestSealRoundTripAndDamage: a sealed record unseals to an equal value,
// and every truncation and every single-bit flip of it either fails with
// ErrBadSeal or still decodes to an equal value (a flip that only changes
// the case of a checksum digit) — never to a different one.
func TestSealRoundTripAndDamage(t *testing.T) {
	want := sealRecord{Name: "lineage-7f", Cursors: []uint64{0, 42, 1 << 40}}
	data, err := Seal(want)
	if err != nil {
		t.Fatal(err)
	}
	check := func(what string, b []byte) {
		t.Helper()
		var got sealRecord
		err := Unseal(b, &got)
		if err != nil && !errors.Is(err, ErrBadSeal) {
			t.Fatalf("%s: untyped error %v", what, err)
		}
		if err == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: decoded %+v, want %+v", what, got, want)
		}
	}
	var got sealRecord
	if err := Unseal(data, &got); err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip: %+v, %v", got, err)
	}
	for n := 0; n < len(data); n++ {
		var r sealRecord
		if err := Unseal(data[:n], &r); !errors.Is(err, ErrBadSeal) {
			t.Fatalf("truncated to %d bytes: %v, want ErrBadSeal", n, err)
		}
	}
	for i := range data {
		for bit := 0; bit < 8; bit++ {
			mut := append([]byte(nil), data...)
			mut[i] ^= 1 << bit
			check("flip", mut)
		}
	}
}

func TestUnsealRefusesUnknownFieldsAndTrailingBytes(t *testing.T) {
	type wider struct {
		sealRecord
		Extra int `json:"extra"`
	}
	data, err := Seal(wider{sealRecord{Name: "a"}, 1})
	if err != nil {
		t.Fatal(err)
	}
	var r sealRecord
	if err := Unseal(data, &r); !errors.Is(err, ErrBadSeal) {
		t.Fatalf("unknown field: %v, want ErrBadSeal", err)
	}
	data, err = Seal(sealRecord{Name: "a"})
	if err != nil {
		t.Fatal(err)
	}
	if err := Unseal(append(data, '\n'), &r); !errors.Is(err, ErrBadSeal) {
		t.Fatalf("trailing byte: %v, want ErrBadSeal", err)
	}
}
