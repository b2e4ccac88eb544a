package keyspace

import (
	"fmt"
	"math"
	"testing"
)

// propertyKeys returns n distinct uniform-ish keys. The same key set is
// used across every sub-test so bounds are comparable.
func propertyKeys(n int) [][]byte {
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("prop-key-%08d", i))
	}
	return keys
}

// TestBalanceAcrossWorkerCounts sweeps the worker counts the paper's
// experiments use (§5 runs 1..16 instances) and checks that each
// partitioner keeps every partition within a bound of fair share. The
// bound differs by technique: modular hashing is nearly perfect on
// uniform keys; consistent hashing pays arc-length variance that shrinks
// with replica count.
func TestBalanceAcrossWorkerCounts(t *testing.T) {
	keys := propertyKeys(50000)
	for _, n := range []int{2, 3, 4, 8, 12, 16} {
		for _, tc := range []struct {
			name  string
			p     Partitioner
			bound float64 // max |count - fair| / fair
		}{
			{"hash", NewHash(n), 0.15},
			{"consistent", NewConsistent(n, 256), 0.50},
		} {
			t.Run(fmt.Sprintf("%s/n=%d", tc.name, n), func(t *testing.T) {
				counts := make([]int, n)
				for _, k := range keys {
					w := tc.p.Pick(k)
					if w < 0 || w >= n {
						t.Fatalf("Pick out of range: %d (n=%d)", w, n)
					}
					counts[w]++
				}
				fair := float64(len(keys)) / float64(n)
				for w, c := range counts {
					dev := math.Abs(float64(c)-fair) / fair
					if dev > tc.bound {
						t.Fatalf("partition %d holds %d keys, fair share %.0f, deviation %.2f > %.2f",
							w, c, fair, dev, tc.bound)
					}
				}
			})
		}
	}
}

// TestConsistentMovedFractionBound quantifies the claim in
// core/migrate.go: with consistent hashing on both sides of a reshard,
// the rewrite volume approaches the theoretical minimum moved-key
// fraction, which for N -> N+1 is 1/(N+1). Arc variance means the
// observed fraction fluctuates around that, so the bound allows a 2.5x
// envelope — still far below the ~N/(N+1) a modular hash forces.
func TestConsistentMovedFractionBound(t *testing.T) {
	keys := propertyKeys(50000)
	moved := func(a, b Partitioner) float64 {
		m := 0
		for _, k := range keys {
			if a.Pick(k) != b.Pick(k) {
				m++
			}
		}
		return float64(m) / float64(len(keys))
	}
	for _, n := range []int{2, 4, 8, 12} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			ideal := 1.0 / float64(n+1)
			cons := moved(NewConsistent(n, 256), NewConsistent(n+1, 256))
			if cons > 2.5*ideal {
				t.Fatalf("consistent %d->%d moved %.3f of keys, theoretical minimum %.3f (bound 2.5x)",
					n, n+1, cons, ideal)
			}
			// A correct ring can't move fewer keys than the ideal fraction
			// by much either — suspiciously low movement means the new
			// node got no arc at all.
			if cons < ideal/4 {
				t.Fatalf("consistent %d->%d moved only %.3f of keys — new partition appears empty", n, n+1, cons)
			}
			hash := moved(NewHash(n), NewHash(n+1))
			if cons >= hash {
				t.Fatalf("consistent moved %.3f >= modular %.3f at n=%d — no relocation advantage", cons, hash, n)
			}
		})
	}
}

// TestConsistentStableUnderReplicaChoice: the partition a key lands on is
// a pure function of (n, replicas) — two independently built rings agree
// on every key, the second built from the first's N and Replicas as a
// reshard does. This is the property that lets a restored store rebuild
// its partitioner from the manifest instead of serializing ring state.
func TestConsistentStableUnderReplicaChoice(t *testing.T) {
	keys := propertyKeys(5000)
	a := NewConsistent(8, 128)
	b := NewConsistent(a.N(), a.Replicas())
	for _, k := range keys {
		if a.Pick(k) != b.Pick(k) {
			t.Fatalf("independently built rings disagree on %q", k)
		}
	}
}
