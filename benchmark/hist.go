package main

import (
	"math/bits"
	"sort"
)

// hist is a log-linear latency histogram in nanoseconds: 128 linear
// sub-buckets per power of two, so a bucket is at most 0.8 % wide.
// Percentiles interpolate inside the bucket, which keeps reported values
// continuous. One goroutine owns a hist while it records; merge combines
// the per-client ones afterwards.
type hist struct {
	counts [histBuckets]uint32
	n      int64
	sum    int64
	max    int64
}

const (
	histSubBits = 7
	histSub     = 1 << histSubBits
	// Values up to 2^40 ns (18 minutes) keep full resolution; larger ones
	// land in the last bucket.
	histMaxExp  = 40
	histBuckets = (histMaxExp - histSubBits + 1) * histSub
)

// histIndex maps ns to its bucket; histLower is its inverse for the lower
// bucket edge.
func histIndex(ns int64) int {
	if ns < histSub {
		if ns < 0 {
			return 0
		}
		return int(ns)
	}
	exp := bits.Len64(uint64(ns)) - 1 // position of the top bit, >= histSubBits
	if exp >= histMaxExp {
		return histBuckets - 1
	}
	sub := int(ns>>(uint(exp)-histSubBits)) - histSub
	return (exp-histSubBits+1)*histSub + sub
}

func histLower(idx int) int64 {
	if idx < histSub {
		return int64(idx)
	}
	block := idx / histSub // >= 1
	sub := idx % histSub
	return int64(histSub+sub) << uint(block-1)
}

func (h *hist) record(ns int64) {
	h.counts[histIndex(ns)]++
	h.n++
	h.sum += ns
	if ns > h.max {
		h.max = ns
	}
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.sum += o.sum
	if o.max > h.max {
		h.max = o.max
	}
}

// quantile returns the q-quantile (0 < q <= 1) in nanoseconds, using the
// same rank convention as quantileOfSorted.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n) // the value below which rank samples lie
	var seen float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if seen+float64(c) >= rank {
			lo := float64(histLower(i))
			hi := float64(histLower(i + 1))
			if i == histBuckets-1 || hi > float64(h.max)+1 {
				hi = float64(h.max) + 1
			}
			return lo + (hi-lo)*(rank-seen)/float64(c)
		}
		seen += float64(c)
	}
	return float64(h.max)
}

// quantileOfSorted is the reference the histogram is tested against: the
// smallest sample such that at least q of the samples are <= it.
func quantileOfSorted(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// median of a small slice of repetition values.
func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
