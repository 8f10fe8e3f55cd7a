package main

import (
	"math"
	"sort"
	"time"
)

// tailCandidates are the percentiles a tail figure may be reported at, from
// the highest down. A tail is reported at the highest one that still leaves
// at least minBeyond samples above it, so a small sample never pretends to
// know its p99.
var tailCandidates = []float64{99, 95, 90, 75, 50}

// minBeyond is how many samples must lie above a reported tail percentile.
const minBeyond = 10

// rank returns the 1-based nearest rank of percentile p in n samples.
func rank(p float64, n int) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// percentile returns the nearest-rank percentile p of sorted (ascending)
// values: the smallest value with at least p% of the samples at or below it.
// It returns 0 for an empty slice.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(p, len(sorted))-1]
}

// tailPercentile picks the percentile a tail of n samples is reported at:
// the highest candidate with at least minBeyond samples beyond its rank, or
// the median when even that is out of reach.
func tailPercentile(n int) float64 {
	for _, p := range tailCandidates {
		if n-rank(p, n) >= minBeyond {
			return p
		}
	}
	return 50
}

// summary is a latency or size series reduced to what the report prints.
type summary struct {
	N      int
	P50    float64
	TailP  float64 // the percentile Tail was taken at
	Tail   float64
	Max    float64
	sorted []float64
}

// summarize sorts a copy of values and reduces it.
func summarize(values []float64) summary {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	out := summary{N: len(s), sorted: s}
	if len(s) == 0 {
		return out
	}
	out.P50 = percentile(s, 50)
	out.TailP = tailPercentile(len(s))
	out.Tail = percentile(s, out.TailP)
	out.Max = s[len(s)-1]
	return out
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quartiles returns the first quartile, median and third quartile of values
// with the method of Python's statistics.quantiles(values, n=4) (the default
// "exclusive" method), so spreads computed here agree with that definition.
// It needs at least two values.
func quartiles(values []float64) (q1, q2, q3 float64, ok bool) {
	d := append([]float64(nil), values...)
	sort.Float64s(d)
	ld := len(d)
	if ld < 2 {
		return 0, 0, 0, false
	}
	const n = 4
	m := ld + 1
	var out [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		j = max(1, min(j, ld-1))
		delta := i*m - j*n
		out[i-1] = (d[j-1]*float64(n-delta) + d[j]*float64(delta)) / n
	}
	return out[0], out[1], out[2], true
}

// median returns the median of values (the middle quartile).
func median(values []float64) float64 {
	switch len(values) {
	case 0:
		return 0
	case 1:
		return values[0]
	}
	_, m, _, _ := quartiles(values)
	return m
}
