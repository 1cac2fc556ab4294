package main

import (
	"math"
	"sort"
)

// median returns the middle of xs (mean of the two middles for even n), or
// 0 for an empty sample. xs is not modified.
func median(xs []float64) float64 {
	return percentile(xs, 50)
}

// percentile returns the p-th percentile of xs by linear interpolation
// between closest ranks (p in [0,100]); 0 for an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// tailPercentiles are the candidates tailOf picks from, highest first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75}

// tailOf picks the highest percentile that still has at least ten samples
// beyond it (choosing-metrics §1) and returns it with its value. Samples
// too small for any candidate (n < 40) report the median as p50.
func tailOf(xs []float64) (pct, value float64) {
	for _, p := range tailPercentiles {
		// The slack absorbs 100-99.9 not being exactly 0.1 in binary.
		if float64(len(xs))*(100-p)/100 >= 10-1e-9 {
			return p, percentile(xs, p)
		}
	}
	return 50, median(xs)
}

// quartileSpread is the distance between the first and third quartile of xs
// as a share of the median, with quartiles placed as Python's
// statistics.quantiles(xs, n=4) places them (exclusive method) — the figure
// the acceptance pipeline holds each end-to-end metric's bound against.
// Fewer than two samples, or a zero median, give 0.
func quartileSpread(xs []float64) float64 {
	n := len(xs)
	med := median(xs)
	if n < 2 || med == 0 {
		return 0
	}
	s := sorted(xs)
	q := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based rank
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		return s[j-1] + (s[j]-s[j-1])*(pos-float64(j))
	}
	return (q(3) - q(1)) / med
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
