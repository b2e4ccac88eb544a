package checkpoint

import (
	"encoding/json"
	"errors"
	"testing"
)

// fuzzSeeds are the corpus: a valid manifest plus structured near-misses.
func fuzzSeeds() [][]byte {
	return [][]byte{
		mustSeal(sampleManifest()),
		mustSeal(&Manifest{Seq: 1, Workers: 1, Engine: "x", WorkerGSN: []uint64{0}}),
		[]byte(""),
		[]byte("00000000\n"),
		mustSeal(json.RawMessage(`{}`)),
		mustSeal(json.RawMessage(`{"seq":1,"workers":1,"engine":"x","worker_gsn":[0],"files":[{"worker":0,"path":"a","restore":"b","size":9223372036854775807,"crc":4294967295}]}`)),
		mustSeal(json.RawMessage(`{"seq":1,"workers":1,"engine":"x","worker_gsn":[0],"bogus":1}`)),
		[]byte("p2kvs-checkpoint v1\nseq 1\nworkers 1\nengine x\nworker 0 gsn 0\ncrc 00000000\n"),
		[]byte("not a manifest at all\n"),
	}
}

// checkParse is the fuzz property: Parse never panics, and either returns
// a structurally valid manifest or a typed ErrCorrupt — no silent partial
// results.
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
	if m.Seq == 0 || m.Workers <= 0 || m.Workers >= 1<<16 || m.Engine == "" || m.BarrierNs < 0 {
		t.Fatalf("accepted manifest missing required header: %+v", m)
	}
	if len(m.WorkerGSN) != m.Workers {
		t.Fatalf("accepted manifest with %d worker gsns for %d workers", len(m.WorkerGSN), m.Workers)
	}
	for _, f := range m.Files {
		if f.Worker < -1 || f.Worker >= m.Workers || f.Size < 0 || !SafeRel(f.Path) || !SafeRel(f.Restore) {
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
// manifest must fail typed (or, for a flip that only changes the case of a
// checksum digit, still parse to a structurally valid manifest) — never
// panic.
func TestParseMutations(t *testing.T) {
	valid := mustSeal(sampleManifest())
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
