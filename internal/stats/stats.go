// Package stats provides the descriptive statistics the figures need:
// five-number summaries for Fig. 4's box-and-whisker plots and log-linear
// growth fits used to characterise Fig. 1's growth regimes.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary is a five-number summary plus mean, the contents of one
// box-and-whisker glyph in Fig. 4.
type Summary struct {
	N      int
	Min    float64
	Q1     float64
	Median float64
	Q3     float64
	Max    float64
	Mean   float64
}

// Summarize computes a Summary of xs. It copies and sorts internally.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	var sum float64
	for _, x := range sorted {
		sum += x
	}
	return Summary{
		N:      len(sorted),
		Min:    sorted[0],
		Q1:     Quantile(sorted, 0.25),
		Median: Quantile(sorted, 0.5),
		Q3:     Quantile(sorted, 0.75),
		Max:    sorted[len(sorted)-1],
		Mean:   sum / float64(len(sorted)),
	}
}

// String renders the summary compactly.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d min=%.4g q1=%.4g med=%.4g q3=%.4g max=%.4g mean=%.4g",
		s.N, s.Min, s.Q1, s.Median, s.Q3, s.Max, s.Mean)
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of an ascending-sorted slice
// using linear interpolation between order statistics.
func Quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n == 1 {
		return sorted[0]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo < 0 {
		lo = 0
	}
	if hi >= n {
		hi = n - 1
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// LinearFit fits y = a + b·x by least squares and returns the intercept,
// slope and coefficient of determination.
func LinearFit(xs, ys []float64) (a, b, r2 float64, err error) {
	if len(xs) != len(ys) {
		return 0, 0, 0, fmt.Errorf("stats: length mismatch %d vs %d", len(xs), len(ys))
	}
	n := float64(len(xs))
	if n < 2 {
		return 0, 0, 0, fmt.Errorf("stats: need at least 2 points, got %d", len(xs))
	}
	var sx, sy, sxx, sxy, syy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
		syy += ys[i] * ys[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return 0, 0, 0, fmt.Errorf("stats: degenerate x values")
	}
	b = (n*sxy - sx*sy) / den
	a = (sy - b*sx) / n
	ssTot := syy - sy*sy/n
	if ssTot == 0 {
		return a, b, 1, nil
	}
	var ssRes float64
	for i := range xs {
		d := ys[i] - (a + b*xs[i])
		ssRes += d * d
	}
	r2 = 1 - ssRes/ssTot
	return a, b, r2, nil
}

// LogLinearFit fits log(y) = a + b·x, the exponential-growth model of
// Fig. 1's pre-attack regime. All ys must be positive.
func LogLinearFit(xs, ys []float64) (a, b, r2 float64, err error) {
	logs := make([]float64, len(ys))
	for i, y := range ys {
		if y <= 0 {
			return 0, 0, 0, fmt.Errorf("stats: log-linear fit needs positive y, got %v at %d", y, i)
		}
		logs[i] = math.Log(y)
	}
	return LinearFit(xs, logs)
}
