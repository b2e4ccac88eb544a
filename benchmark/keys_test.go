package main

import (
	"math"
	"strings"
	"testing"
)

func draw(c chooser, seed uint64, n int) []uint64 {
	r := newRNG(seed, 'c', 0)
	out := make([]uint64, n)
	for i := range out {
		out[i] = c.pick(r)
	}
	return out
}

func TestChoosersAreDeterministic(t *testing.T) {
	const n = 100_000
	for name, c := range map[string]chooser{
		"uniform": uniformChooser{n},
		"zipfian": newZipf(n, 0.99),
	} {
		a, b, other := draw(c, 7, 5000), draw(c, 7, 5000), draw(c, 8, 5000)
		same := 0
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: draw %d differs between two runs of seed 7: %d vs %d", name, i, a[i], b[i])
			}
			if a[i] >= n {
				t.Fatalf("%s: id %d outside [0, %d)", name, a[i], n)
			}
			if a[i] == other[i] {
				same++
			}
		}
		if same > len(a)/2 {
			t.Errorf("%s: seeds 7 and 8 agree on %d of %d draws", name, same, len(a))
		}
	}
}

func TestUniformCoversTheKeySpace(t *testing.T) {
	const n, draws = 100, 100_000
	counts := make([]int, n)
	for _, id := range draw(uniformChooser{n}, 1, draws) {
		counts[id]++
	}
	for id, c := range counts {
		if c < draws/n*8/10 || c > draws/n*12/10 {
			t.Errorf("id %d drawn %d times, want about %d", id, c, draws/n)
		}
	}
}

// The head of a zipfian with theta 0.99 is heavy: rank 0 has mass
// 1/zeta(n) and the first ten ranks about a fifth of all draws.
func TestZipfianHeadMass(t *testing.T) {
	const n, draws = 100_000, 400_000
	z := newZipf(n, 0.99)
	var zeta, top10 float64
	for i := 1; i <= n; i++ {
		zeta += 1 / math.Pow(float64(i), 0.99)
	}
	for i := 1; i <= 10; i++ {
		top10 += 1 / math.Pow(float64(i), 0.99) / zeta
	}
	r := newRNG(3, 'z')
	var rank0, head int
	for i := 0; i < draws; i++ {
		switch k := z.rank(r); {
		case k == 0:
			rank0++
			head++
		case k < 10:
			head++
		}
	}
	if got, want := float64(rank0)/draws, 1/zeta; math.Abs(got-want) > 0.1*want {
		t.Errorf("rank 0 mass %.4f, want %.4f", got, want)
	}
	// The generator approximates ranks 2.. by a continuous curve, so allow
	// more slack on the ten-rank head than on rank 0.
	if got := float64(head) / draws; math.Abs(got-top10) > 0.15*top10 {
		t.Errorf("mass of ranks 0-9 %.4f, want %.4f", got, top10)
	}

	// Scrambling scatters the popular ranks: the two hottest ids are not
	// neighbours.
	if a, b := fnv1a64(0)%n, fnv1a64(1)%n; a+1 == b || b+1 == a || a == b {
		t.Errorf("ranks 0 and 1 map to adjacent ids %d and %d", a, b)
	}
}

func TestOwnedBy(t *testing.T) {
	for id := uint64(0); id < 10; id++ {
		for c := 0; c < numClients; c++ {
			got := ownedBy(id, c)
			if got%numClients != uint64(c) || got/numClients != id/numClients {
				t.Errorf("ownedBy(%d, %d) = %d", id, c, got)
			}
		}
	}
}

func TestKeyEncoding(t *testing.T) {
	var k [keyLen]byte
	putKey(k[:], 1234567)
	if got := string(k[:]); got != "user000001234567" {
		t.Errorf("key %q", got)
	}
}

func TestVerifierCatchesDamageAndStaleness(t *testing.T) {
	const id = 42
	vs := newVersions(100)
	var v [valueLen]byte
	putValue(v[:], id, 3)
	vs.issued[id].Store(3)

	if err := vs.checkRead(v[:], id, 3); err != nil {
		t.Fatalf("the right value was rejected: %v", err)
	}
	if got, err := checkValue(v[:], id); err != nil || got != 3 {
		t.Fatalf("checkValue = %d, %v", got, err)
	}

	for _, pos := range []int{0, 9, 13, 16, 77, valueLen - 1} {
		bad := v
		bad[pos] ^= 0x04
		if err := vs.checkRead(bad[:], id, 0); err == nil {
			t.Errorf("a flipped bit in byte %d went unnoticed", pos)
		}
	}
	if err := vs.checkRead(v[:valueLen-1], id, 0); err == nil {
		t.Error("a truncated value went unnoticed")
	}
	if err := vs.checkRead(v[:], id+1, 0); err == nil {
		t.Error("another key's value went unnoticed")
	}

	// Version 3 was read although version 4 had been acknowledged before
	// the read was submitted.
	vs.issued[id].Store(4)
	err := vs.checkRead(v[:], id, 4)
	if err == nil || !strings.Contains(err.Error(), "stale") {
		t.Errorf("stale read: got %v", err)
	}
	// A version nobody issued yet.
	putValue(v[:], id, 9)
	if err := vs.checkRead(v[:], id, 0); err == nil {
		t.Error("a version from the future went unnoticed")
	}
}
