package main

import "slices"

// quartiles returns the three cut points of xs the way Python's
// statistics.quantiles(xs, n=4) does (the "exclusive" method), so spreads
// computed here match the ones the benchmark driver computes. Fewer than
// two values have no spread: all three cut points are the value itself.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return xs[0], xs[0], xs[0]
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	cut := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	s := (q3 - q1) / q2
	if s < 0 {
		s = -s
	}
	return s
}

// median is the middle value of xs (the mean of the middle two).
func median(xs []float64) float64 {
	_, q2, _ := quartiles(xs)
	return q2
}

// nsQuantile returns the exact q-quantile of nanosecond samples, sorting
// them in place.
func nsQuantile(ns []int64, q float64) float64 {
	if len(ns) == 0 {
		return 0
	}
	slices.Sort(ns)
	return float64(ns[min(int(q*float64(len(ns))), len(ns)-1)])
}
