package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a percentile before it is
// reported: a tail read off fewer samples is one or two outliers, not a
// percentile.
const minBeyond = 10

// tailLadder lists the percentiles a tail may fall back to, highest
// first.
var tailLadder = []float64{99, 95, 90, 75}

// quantile returns the p-th percentile (0..100) of xs by linear
// interpolation between closest ranks. xs need not be sorted.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// median is quantile(xs, 50).
func median(xs []float64) float64 { return quantile(xs, 50) }

// beyond counts the samples of an n-sample set that lie strictly above
// its p-th percentile rank.
func beyond(n int, p float64) int {
	return n - int(math.Ceil(p/100*float64(n)))
}

// tailPercentile picks the percentile to report for a tail: want itself
// when at least minBeyond samples lie beyond it, otherwise the highest
// ladder percentile below want that has them. ok is false when none has
// them: the median, reported on its own, is then the only percentile.
func tailPercentile(n int, want float64) (p float64, ok bool) {
	for _, q := range tailLadder {
		if q <= want && beyond(n, q) >= minBeyond {
			return q, true
		}
	}
	return 0, false
}

// sum adds xs.
func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// ratio is num/den, or 0 when den is 0 (a layer the workload never
// reaches does no work).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// tail reports the highest percentile up to want that has minBeyond
// samples beyond it, scaled by mult, or says why there is none.
func tail(prefix string, xs []float64, want, mult float64, unit string) metric {
	p, ok := tailPercentile(len(xs), want)
	if !ok {
		return metric{fmt.Sprintf("%s_p%g", prefix, want), unit, math.NaN(),
			fmt.Sprintf("n/a: n=%d leaves fewer than %d samples beyond any percentile", len(xs), minBeyond)}
	}
	return metric{fmt.Sprintf("%s_p%g", prefix, p), unit, quantile(xs, p) * mult,
		fmt.Sprintf("n=%d, %d beyond", len(xs), beyond(len(xs), p))}
}
