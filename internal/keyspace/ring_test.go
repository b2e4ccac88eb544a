package keyspace

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestMovedRangesExactness is the core resharding correctness property:
// for random N -> N±1 transitions, the moved set computed by MovedRanges
// is *exactly* the set of keys whose owner differs between the two rings
// — no key the rings disagree on is missed (a miss would lose the key at
// cutover), and no key the rings agree on is flagged (a false positive
// would double-write and copy data that never moves).
func TestMovedRangesExactness(t *testing.T) {
	keys := propertyKeys(30000)
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 12; trial++ {
		n := 2 + rng.Intn(10)
		delta := 1
		if rng.Intn(2) == 0 && n > 2 {
			delta = -1
		}
		nn := n + delta
		t.Run(fmt.Sprintf("%d-%d", n, nn), func(t *testing.T) {
			oldRing := NewConsistent(n, DefaultReplicas)
			newRing := NewConsistent(nn, DefaultReplicas)
			set := NewMovedSet(MovedRanges(oldRing, newRing))
			for _, k := range keys {
				from, to := oldRing.Pick(k), newRing.Pick(k)
				mr, moved := set.FindKey(k)
				if moved != (from != to) {
					t.Fatalf("key %q: rings say moved=%v (owner %d->%d), MovedRanges says %v",
						k, from != to, from, to, moved)
				}
				if moved && (mr.From != from || mr.To != to) {
					t.Fatalf("key %q: moved arc says %d->%d, rings say %d->%d",
						k, mr.From, mr.To, from, to)
				}
			}
		})
	}
}

// TestMovedRangesDoubleWriteSetIsTight: the double-write interceptor
// mirrors exactly the keys in the moved set, so the property above has a
// sharper corollary worth pinning on its own — the set contains no
// non-moved key (every mirrored write really changes owner) and, on a
// grow, every moved key lands on the newly added worker.
func TestMovedRangesDoubleWriteSetIsTight(t *testing.T) {
	keys := propertyKeys(30000)
	for _, n := range []int{2, 4, 8} {
		oldRing := NewConsistent(n, DefaultReplicas)
		newRing := NewConsistent(n+1, DefaultReplicas)
		set := NewMovedSet(MovedRanges(oldRing, newRing))
		for _, r := range MovedRanges(oldRing, newRing) {
			if r.From == r.To {
				t.Fatalf("n=%d: arc (%x,%x] moves %d->%d — not a move at all", n, r.Lo, r.Hi, r.From, r.To)
			}
			if r.To != n {
				t.Fatalf("n=%d->%d: arc moves to worker %d, but only worker %d joined", n, n+1, r.To, n)
			}
			if r.From < 0 || r.From >= n {
				t.Fatalf("n=%d: arc moves from out-of-range worker %d", n, r.From)
			}
		}
		for _, k := range keys {
			if _, moved := set.FindKey(k); moved && oldRing.Pick(k) == newRing.Pick(k) {
				t.Fatalf("n=%d: non-moved key %q is in the double-write set", n, k)
			}
		}
	}
}

// TestMovedSetFractionBound extends the PR 5 moved-fraction property to
// the reshard planner's own computation: the fraction of keys MovedSet
// flags stays within the 2.5/(N+1) envelope the consistent ring promises,
// for grows and (against 2.5/N) shrinks.
func TestMovedSetFractionBound(t *testing.T) {
	keys := propertyKeys(50000)
	frac := func(set *MovedSet) float64 {
		m := 0
		for _, k := range keys {
			if _, moved := set.FindKey(k); moved {
				m++
			}
		}
		return float64(m) / float64(len(keys))
	}
	for _, n := range []int{2, 4, 8, 12} {
		grow := frac(NewMovedSet(MovedRanges(NewConsistent(n, 256), NewConsistent(n+1, 256))))
		if bound := 2.5 / float64(n+1); grow > bound {
			t.Fatalf("grow %d->%d moves %.3f of keys > bound %.3f", n, n+1, grow, bound)
		}
		shrink := frac(NewMovedSet(MovedRanges(NewConsistent(n+1, 256), NewConsistent(n, 256))))
		if bound := 2.5 / float64(n+1); shrink > bound {
			t.Fatalf("shrink %d->%d moves %.3f of keys > bound %.3f", n+1, n, shrink, bound)
		}
	}
}

// TestMovedRangesIdentity: a transition to the same worker count moves
// nothing — the degenerate case the no-op reshard path relies on.
func TestMovedRangesIdentity(t *testing.T) {
	for _, n := range []int{1, 3, 8} {
		if rs := MovedRanges(NewConsistent(n, 64), NewConsistent(n, 64)); len(rs) != 0 {
			t.Fatalf("n=%d identity transition reports %d moved arcs", n, len(rs))
		}
	}
}

// TestKeyPointMatchesPick pins the coordinate system: routing a key and
// routing its KeyPoint through PickPoint are the same function.
func TestKeyPointMatchesPick(t *testing.T) {
	c := NewConsistent(6, DefaultReplicas)
	for _, k := range propertyKeys(2000) {
		if c.Pick(k) != c.PickPoint(KeyPoint(k)) {
			t.Fatalf("Pick and PickPoint(KeyPoint) disagree on %q", k)
		}
	}
}
