package loadgen

import (
	"bytes"
	"math"
	"sync/atomic"
	"testing"
)

func TestKeyFormat(t *testing.T) {
	k := Key(42)
	if len(k) != 16 {
		t.Fatalf("key len = %d, want 16", len(k))
	}
	if string(k) != "user000000000042" {
		t.Fatalf("key = %q", k)
	}
	// Keys sort by index.
	if !(string(Key(9)) < string(Key(10)) && string(Key(99)) < string(Key(100))) {
		t.Fatal("keys do not sort numerically")
	}
}

func TestValueDeterministicAndSized(t *testing.T) {
	v1 := Value(7, 0, 128)
	v2 := Value(7, 0, 128)
	v3 := Value(8, 0, 128)
	if len(v1) != 128 {
		t.Fatalf("len = %d", len(v1))
	}
	if !bytes.Equal(v1, v2) {
		t.Fatal("value not deterministic")
	}
	if bytes.Equal(v1, v3) {
		t.Fatal("different keys produced identical values")
	}
	if len(Value(1, 0, 45)) != 45 {
		t.Fatal("odd sizes must work")
	}
}

func TestUniformInRange(t *testing.T) {
	u := NewUniform(100, 1)
	seen := map[uint64]bool{}
	for i := 0; i < 10000; i++ {
		v := u.Next()
		if v >= 100 {
			t.Fatalf("out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) < 95 {
		t.Fatalf("uniform covered only %d/100 values", len(seen))
	}
}

func TestSequentialWraps(t *testing.T) {
	s := NewSequential(3)
	got := []uint64{s.Next(), s.Next(), s.Next(), s.Next()}
	want := []uint64{0, 1, 2, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sequence = %v", got)
		}
	}
}

func TestZipfianSkewAndRange(t *testing.T) {
	z := NewZipfian(10000, 42)
	counts := map[uint64]int{}
	const n = 100000
	for i := 0; i < n; i++ {
		v := z.Next()
		if v >= 10000 {
			t.Fatalf("out of range: %d", v)
		}
		counts[v]++
	}
	// Zipfian must be skewed: the most popular item should take far more
	// than the uniform share (10 of 100000).
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	if max < 100 {
		t.Fatalf("hottest key only %d hits — not zipfian", max)
	}
	// But scrambling must spread hot keys: distinct values should still
	// be numerous.
	if len(counts) < 2000 {
		t.Fatalf("only %d distinct keys drawn", len(counts))
	}
}

func TestLatestFavorsRecent(t *testing.T) {
	var frontier atomic.Uint64
	frontier.Store(10000)
	l := NewLatest(&frontier, 7)
	recent, n := 0, 50000
	for i := 0; i < n; i++ {
		v := l.Next()
		if v >= 10000 {
			t.Fatalf("latest out of range: %d", v)
		}
		if v >= 9000 {
			recent++
		}
	}
	// The newest 10% of keys must receive well over 10% of accesses.
	if float64(recent)/float64(n) < 0.3 {
		t.Fatalf("latest not skewed to recent: %.2f%%", 100*float64(recent)/float64(n))
	}
	// Frontier growth shifts the distribution.
	frontier.Store(20000)
	if v := l.Next(); v >= 20000 {
		t.Fatalf("latest ignored frontier growth: %d", v)
	}
}

func TestLatestEmptyFrontier(t *testing.T) {
	var frontier atomic.Uint64
	l := NewLatest(&frontier, 1)
	if v := l.Next(); v != 0 {
		t.Fatalf("empty frontier must yield 0, got %d", v)
	}
}

func TestMicroKinds(t *testing.T) {
	for _, kind := range []string{"fillseq", "fillrandom", "updaterandom", "readseq", "readrandom"} {
		c := NewGenerator(MustLookup(kind), 1000, NewFrontier(1000), 1)
		for i := 0; i < 100; i++ {
			if v := c.Next().KeyIdx; v >= 1000 {
				t.Fatalf("%s out of range: %d", kind, v)
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("unknown kind must panic")
		}
	}()
	MustLookup("bogus")
}

func TestZetaApproximation(t *testing.T) {
	// The sampled zeta for large n must be close to brute force.
	exact := 0.0
	const n = 200000
	for i := 1; i <= n; i++ {
		exact += 1 / math.Pow(float64(i), ZipfTheta)
	}
	approx := zeta(n, ZipfTheta)
	if diff := (approx - exact) / exact; diff > 0.02 || diff < -0.02 {
		t.Fatalf("zeta approximation off by %.2f%%", diff*100)
	}
}
