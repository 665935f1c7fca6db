package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a percentile for it to
// be reported: a p90 needs 100 samples, a p99 needs 1000.
const minBeyond = 10

// percentile returns the q-quantile (0 < q < 1) of sorted by the
// nearest-rank rule, and whether at least minBeyond samples lie beyond
// it. The median (q = 0.5) is always supported on a non-empty sample.
func percentile(sorted []float64, q float64) (float64, bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1], n-rank >= minBeyond || q <= 0.5
}

// sortedCopy returns the samples in ascending order without touching
// the caller's slice.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median returns the middle value (mean of the two middle values for
// an even count), 0 for an empty sample.
func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (exclusive method), which is what
// the acceptance driver uses; it needs at least two values.
func quartiles(xs []float64) (q1, q3 float64, ok bool) {
	s := sortedCopy(xs)
	n := len(s)
	if n < 2 {
		return 0, 0, false
	}
	at := func(i int) float64 { // i-th of 4 cut points
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4 // outside 0..4 at the clamped ends: extrapolates, as Python does
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3), true
}

// spread is the run-to-run spread of a metric: the distance between
// the first and third quartile as a share of the median. It is 0 when
// fewer than two values exist or the median is 0.
func spread(xs []float64) float64 {
	q1, q3, ok := quartiles(xs)
	m := median(xs)
	if !ok || m == 0 {
		return 0
	}
	return math.Abs((q3 - q1) / m)
}

// durationsMS converts raw latency samples to milliseconds.
func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// ratio divides, returning 0 for a zero denominator so that a layer a
// workload never touches reports 0 rather than NaN.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
