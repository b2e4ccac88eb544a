package checkpoint

import (
	"errors"
	"testing"
)

// fuzzSeeds are the corpus: a valid manifest plus structured near-misses.
func fuzzSeeds() [][]byte {
	m := sampleManifest()
	valid := m.Encode()
	empty := (&Manifest{Seq: 1, Workers: 1, Engine: "x", WorkerGSN: []uint64{0}}).Encode()
	return [][]byte{
		valid,
		empty,
		[]byte(""),
		[]byte("p2kvs-checkpoint v1\n"),
		[]byte("p2kvs-checkpoint v1\ncrc 00000000\n"),
		[]byte(seal("p2kvs-checkpoint v1\nseq 1\nworkers 1\nengine x\nworker 0 gsn 0\nfile 0 9223372036854775807 ffffffff a b\n")),
		[]byte("not a manifest at all\n"),
	}
}

// checkParse is the fuzz property: Parse never panics, and either returns
// a structurally valid manifest or a typed ErrCorrupt/ParseError — no
// silent partial results.
func checkParse(t *testing.T, data []byte) {
	m, err := Parse(data)
	if err != nil {
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("non-typed parse error %v (%T) for %q", err, err, data)
		}
		if m != nil {
			t.Fatalf("error AND manifest returned for %q", data)
		}
		return
	}
	// Accepted: the invariants Parse promises must actually hold, so a
	// mutation can never yield a "successfully parsed" partial image.
	if m.Seq == 0 || m.Workers <= 0 || m.Engine == "" {
		t.Fatalf("accepted manifest missing required header: %+v", m)
	}
	if len(m.WorkerGSN) != m.Workers {
		t.Fatalf("accepted manifest with %d worker gsns for %d workers", len(m.WorkerGSN), m.Workers)
	}
	for _, f := range m.Files {
		if f.Worker < -1 || f.Worker >= m.Workers || !SafeRel(f.Path) || !SafeRel(f.Restore) {
			t.Fatalf("accepted manifest with invalid file %+v", f)
		}
	}
}

// FuzzParse is the coverage-guided entry point:
//
//	go test ./internal/checkpoint -fuzz=FuzzParse
func FuzzParse(f *testing.F) {
	for _, s := range fuzzSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkParse(t, data)
	})
}

// TestParseMutations runs a deterministic slice of the fuzz space on every
// ordinary `go test`: all truncations and every single-bit flip of a valid
// manifest must fail typed (or, for flips in free-text fields, still parse
// to a structurally valid manifest) — never panic.
func TestParseMutations(t *testing.T) {
	valid := sampleManifest().Encode()
	for n := 0; n <= len(valid); n++ {
		checkParse(t, valid[:n])
	}
	for i := 0; i < len(valid); i++ {
		for bit := 0; bit < 8; bit++ {
			mut := append([]byte(nil), valid...)
			mut[i] ^= 1 << bit
			checkParse(t, mut)
		}
	}
}
