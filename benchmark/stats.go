package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of vals.
func sorted(vals []float64) []float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return s
}

// median of vals; 0 for an empty slice.
func median(vals []float64) float64 {
	s := sorted(vals)
	switch n := len(s); {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first and third quartile of vals by the
// exclusive method, the one Python's statistics.quantiles(vals, n=4)
// uses and therefore the one the acceptance spread is judged by. Fewer
// than two values have no spread: both quartiles are the value itself.
func quartiles(vals []float64) (q1, q3 float64) {
	s := sorted(vals)
	n := len(s)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return s[0], s[0]
	}
	at := func(k int) float64 { // k-th of 4 cut points
		pos := float64(k) * float64(n+1) / 4
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

// spread is the inter-quartile distance as a share of the median.
func spread(vals []float64) float64 {
	m := median(vals)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(vals)
	return math.Abs((q3 - q1) / m)
}

// topPercentile reports the highest whole percentile of n samples that
// still has at least ten samples beyond it, or 0 when even the median
// does not (n < 20). A tail percentile read off fewer samples is one
// outlier's position, not a distribution's.
func topPercentile(n int) int {
	for _, p := range []int{99, 95, 90, 75, 50} {
		if n*(100-p) >= 10*100 {
			return p
		}
	}
	return 0
}

// percentile is the nearest-rank p-th percentile of vals (every reported
// value was observed); 0 for an empty slice.
func percentile(vals []float64, p int) float64 {
	s := sorted(vals)
	if len(s) == 0 {
		return 0
	}
	rank := (len(s)*p + 99) / 100
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}
