package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (mean of the middle two), 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// upperQuartile returns the value three quarters of the way up xs (nearest
// rank). Throughput over equal-work segments is reported by it: on the
// reference box a neighbour's memory traffic slows some segments by a third
// and speeds none up, so the upper quartile sits in the undisturbed mode,
// where the median jumps between the two modes from run to run.
func upperQuartile(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentile(s, 75)
}

// percentile returns the p-th percentile (0..100) of sorted by the
// nearest-rank rule.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p * float64(len(sorted)) / 100))
	return sorted[min(max(rank, 1), len(sorted))-1]
}

// percentileLadder is the set of percentiles the benchmark may report, each
// with the share of samples beyond it in parts per thousand.
var percentileLadder = []struct {
	p      float64
	beyond int
}{{50, 500}, {90, 100}, {95, 50}, {99, 10}, {99.9, 1}}

// highestPercentile returns the highest percentile of the ladder that still
// has at least ten samples beyond it among n samples, or 0 when even the
// median has not.
func highestPercentile(n int) float64 {
	best := 0.0
	for _, l := range percentileLadder {
		if n*l.beyond >= 10*1000 {
			best = l.p
		}
	}
	return best
}

// quartileSpread is the distance between the first and third quartile as a
// share of the median, with the quartiles of Python's
// statistics.quantiles(values, n=4) (the exclusive method), which is what the
// driver computes.
func quartileSpread(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		j = min(max(j, 1), n-1)
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	med := median(s)
	if med == 0 {
		return 0
	}
	return (q(3) - q(1)) / math.Abs(med)
}
