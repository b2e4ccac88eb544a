package main

import (
	"math"
	"sort"
	"testing"
)

func TestHistogramBucketsRoundTrip(t *testing.T) {
	for _, ns := range []int64{0, 1, 127, 128, 129, 255, 256, 1000, 123456, 1 << 30, 1<<39 + 12345} {
		i := histIndex(ns)
		lo, hi := histLower(i), histLower(i+1)
		if ns < lo || ns >= hi {
			t.Errorf("%d ns landed in bucket %d = [%d, %d)", ns, i, lo, hi)
		}
		if ns >= histSub && float64(hi-lo)/float64(lo) > 1.0/histSub {
			t.Errorf("bucket %d is %d wide at %d", i, hi-lo, lo)
		}
	}
	if i := histIndex(1 << 50); i != histBuckets-1 {
		t.Errorf("overflow landed in bucket %d", i)
	}
}

func TestHistogramPercentilesMatchSortedSlice(t *testing.T) {
	r := newRNG(5, 'h')
	var h hist
	var samples []int64
	for i := 0; i < 200_000; i++ {
		// Log-normal-ish latencies around 20 us with a long tail.
		ns := int64(20_000 * math.Exp(2*(r.float64()+r.float64()+r.float64()-1.5)))
		if i%1000 == 0 {
			ns *= 50
		}
		samples = append(samples, ns)
		h.record(ns)
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	for _, q := range []float64{0.01, 0.5, 0.9, 0.99, 0.999, 1} {
		want := float64(quantileOfSorted(samples, q))
		got := h.quantile(q)
		if math.Abs(got-want) > 0.01*want {
			t.Errorf("q%.3f = %.0f, sorted slice says %.0f", q, got, want)
		}
	}
	var sum int64
	for _, s := range samples {
		sum += s
	}
	if h.n != int64(len(samples)) || h.sum != sum || h.max != samples[len(samples)-1] {
		t.Errorf("n %d sum %d max %d, want %d %d %d", h.n, h.sum, h.max, len(samples), sum, samples[len(samples)-1])
	}

	// Merging two halves gives the same answer as recording into one.
	var a, b hist
	for i, s := range samples {
		if i%2 == 0 {
			a.record(s)
		} else {
			b.record(s)
		}
	}
	a.merge(&b)
	if a.quantile(0.99) != h.quantile(0.99) || a.n != h.n || a.max != h.max {
		t.Errorf("merged p99 %.0f n %d, want %.0f n %d", a.quantile(0.99), a.n, h.quantile(0.99), h.n)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of three = %v", got)
	}
	if got := median([]float64{4, 1, 2, 3}); got != 2.5 {
		t.Errorf("median of four = %v", got)
	}
}
