package keyspace

import "sort"

// KeyPoint returns key's position on the consistent-hash ring — the same
// hash Consistent.Pick routes by. Exported so the resharding planner can
// reason about keys and ring arcs in one coordinate system.
func KeyPoint(key []byte) uint64 { return fnv64(key) }

// PickPoint returns the worker owning ring position h: the owner of the
// first virtual point clockwise from h (wrapping past the highest point
// back to the lowest).
func (c Consistent) PickPoint(h uint64) int {
	i := sort.Search(len(c.points), func(i int) bool { return c.points[i] >= h })
	if i == len(c.points) {
		i = 0
	}
	return c.owner[i]
}

// MovedRange is one arc of the hash ring whose owner differs between two
// ring generations. Membership is the half-open arc (Lo, Hi] in ring
// coordinates; a range with Lo >= Hi wraps through zero (h > Lo || h <=
// Hi). From is the arc's owner under the old ring, To under the new one.
type MovedRange struct {
	Lo, Hi   uint64
	From, To int
}

// Contains reports whether ring position h falls inside the arc.
func (r MovedRange) Contains(h uint64) bool {
	if r.Lo < r.Hi {
		return h > r.Lo && h <= r.Hi
	}
	return h > r.Lo || h <= r.Hi
}

// MovedRanges computes the exact set of ring arcs whose owner changes
// between two consistent-hash generations — the single source of truth
// for which keys an old→new transition relocates; the online resharding
// copy/double-write planner is built on it.
//
// The construction merges both rings' virtual points; between two
// adjacent merged points the owner is constant under either ring (no
// point of either ring splits the arc), so comparing the owners at each
// merged point enumerates every moved arc with no false positives or
// negatives.
func MovedRanges(oldRing, newRing Consistent) []MovedRange {
	pts := make([]uint64, 0, len(oldRing.points)+len(newRing.points))
	pts = append(pts, oldRing.points...)
	pts = append(pts, newRing.points...)
	sort.Slice(pts, func(i, j int) bool { return pts[i] < pts[j] })
	// Dedup in place.
	uniq := pts[:0]
	for i, p := range pts {
		if i == 0 || p != uniq[len(uniq)-1] {
			uniq = append(uniq, p)
		}
	}
	pts = uniq
	var out []MovedRange
	for j, hi := range pts {
		lo := pts[(j+len(pts)-1)%len(pts)] // j == 0 wraps: arc (max, min]
		from, to := oldRing.PickPoint(hi), newRing.PickPoint(hi)
		if from != to {
			out = append(out, MovedRange{Lo: lo, Hi: hi, From: from, To: to})
		}
	}
	return out
}

// MovedSet indexes a MovedRanges result for O(log n) key membership
// tests: the copy planner asks "is this key moved, and to whom" once per
// scanned key, and the double-write interceptor once per written key.
type MovedSet struct {
	ranges []MovedRange // non-wrapping, sorted by Hi ascending
	wrap   []MovedRange // the at-most-one arc wrapping through zero
}

// NewMovedSet builds the index. The input is a MovedRanges result; order
// does not matter.
func NewMovedSet(ranges []MovedRange) *MovedSet {
	m := &MovedSet{}
	for _, r := range ranges {
		if r.Lo < r.Hi {
			m.ranges = append(m.ranges, r)
		} else {
			m.wrap = append(m.wrap, r)
		}
	}
	sort.Slice(m.ranges, func(i, j int) bool { return m.ranges[i].Hi < m.ranges[j].Hi })
	return m
}

// Find returns the moved arc containing ring position h, if any.
func (m *MovedSet) Find(h uint64) (MovedRange, bool) {
	i := sort.Search(len(m.ranges), func(i int) bool { return m.ranges[i].Hi >= h })
	if i < len(m.ranges) && m.ranges[i].Contains(h) {
		return m.ranges[i], true
	}
	for _, r := range m.wrap {
		if r.Contains(h) {
			return r, true
		}
	}
	return MovedRange{}, false
}

// FindKey returns the moved arc containing key, if any.
func (m *MovedSet) FindKey(key []byte) (MovedRange, bool) {
	return m.Find(KeyPoint(key))
}
