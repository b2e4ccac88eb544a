package bloom

import (
	"fmt"
	"testing"
	"testing/quick"
)

func hashesOf(keys [][]byte) []uint32 {
	hs := make([]uint32, len(keys))
	for i, k := range keys {
		hs[i] = Hash(k)
	}
	return hs
}

func TestNoFalseNegatives(t *testing.T) {
	f := New(10)
	var keys [][]byte
	for i := 0; i < 2000; i++ {
		keys = append(keys, []byte(fmt.Sprintf("key-%d", i)))
	}
	filter := f.Build(hashesOf(keys))
	for _, k := range keys {
		if !MayContain(filter, Hash(k)) {
			t.Fatalf("false negative for %q", k)
		}
	}
}

func TestFalsePositiveRate(t *testing.T) {
	f := New(10)
	var keys [][]byte
	for i := 0; i < 10000; i++ {
		keys = append(keys, []byte(fmt.Sprintf("in-%d", i)))
	}
	filter := f.Build(hashesOf(keys))
	fp := 0
	const probes = 10000
	for i := 0; i < probes; i++ {
		if MayContain(filter, Hash([]byte(fmt.Sprintf("out-%d", i)))) {
			fp++
		}
	}
	rate := float64(fp) / probes
	if rate > 0.03 {
		t.Fatalf("false positive rate %.4f, want <= 3%% at 10 bits/key", rate)
	}
}

func TestQuickNoFalseNegatives(t *testing.T) {
	fn := func(keys [][]byte, bits uint8) bool {
		f := New(int(bits%20) + 1)
		filter := f.Build(hashesOf(keys))
		for _, k := range keys {
			if !MayContain(filter, Hash(k)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestEmptyAndDegenerate(t *testing.T) {
	f := New(10)
	filter := f.Build(nil)
	// Empty filter: probes may return either way but must not panic.
	MayContain(filter, Hash([]byte("x")))
	if !MayContain(nil, Hash([]byte("x"))) {
		t.Fatal("nil filter must match everything (fail open)")
	}
	if !MayContain([]byte{0}, Hash([]byte("x"))) {
		t.Fatal("tiny filter must fail open")
	}
}

func TestHashDistribution(t *testing.T) {
	// Sanity: hash differs across small edits.
	h1 := Hash([]byte("abc"))
	h2 := Hash([]byte("abd"))
	h3 := Hash([]byte("abc "))
	if h1 == h2 || h1 == h3 {
		t.Fatal("hash collisions on trivial edits")
	}
	if Hash(nil) != Hash([]byte{}) {
		t.Fatal("nil and empty must hash equal")
	}
}

func TestClampedParams(t *testing.T) {
	if f := New(0); f.k < 1 {
		t.Fatal("k must clamp to >= 1")
	}
	if f := New(1000); f.k > 30 {
		t.Fatal("k must clamp to <= 30")
	}
}
