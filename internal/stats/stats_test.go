package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.N != 0 {
		t.Errorf("N = %d", s.N)
	}
}

func TestSummarizeKnown(t *testing.T) {
	s := Summarize([]float64{4, 1, 3, 2, 5})
	if s.N != 5 || s.Min != 1 || s.Max != 5 || s.Median != 3 || s.Mean != 3 {
		t.Errorf("summary = %+v", s)
	}
	if s.Q1 != 2 || s.Q3 != 4 {
		t.Errorf("quartiles = %v, %v", s.Q1, s.Q3)
	}
}

func TestSummarizeDoesNotMutateInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	Summarize(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Error("Summarize mutated its input")
	}
}

func TestQuantileInterpolation(t *testing.T) {
	sorted := []float64{0, 10}
	if got := Quantile(sorted, 0.5); got != 5 {
		t.Errorf("median of {0,10} = %v, want 5", got)
	}
	if got := Quantile(sorted, 0); got != 0 {
		t.Errorf("q0 = %v", got)
	}
	if got := Quantile(sorted, 1); got != 10 {
		t.Errorf("q1 = %v", got)
	}
	if got := Quantile([]float64{7}, 0.9); got != 7 {
		t.Errorf("single-element quantile = %v", got)
	}
	if got := Quantile(nil, 0.5); got != 0 {
		t.Errorf("empty quantile = %v", got)
	}
}

func TestLinearFitRecoversLine(t *testing.T) {
	xs := []float64{0, 1, 2, 3, 4}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 2 + 3*x
	}
	a, b, r2, err := LinearFit(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a-2) > 1e-9 || math.Abs(b-3) > 1e-9 || math.Abs(r2-1) > 1e-9 {
		t.Errorf("fit = %v + %v x, r2 = %v", a, b, r2)
	}
}

func TestLinearFitErrors(t *testing.T) {
	if _, _, _, err := LinearFit([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("length mismatch must error")
	}
	if _, _, _, err := LinearFit([]float64{1}, []float64{1}); err == nil {
		t.Error("single point must error")
	}
	if _, _, _, err := LinearFit([]float64{2, 2}, []float64{1, 5}); err == nil {
		t.Error("degenerate x must error")
	}
}

func TestLogLinearFitRecoversExponential(t *testing.T) {
	// y = 10 * e^(0.5 x)
	xs := []float64{0, 1, 2, 3, 4, 5}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 10 * math.Exp(0.5*x)
	}
	a, b, r2, err := LogLinearFit(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(b-0.5) > 1e-9 || math.Abs(math.Exp(a)-10) > 1e-6 || r2 < 0.999 {
		t.Errorf("log fit a=%v b=%v r2=%v", a, b, r2)
	}
}

func TestLogLinearFitRejectsNonPositive(t *testing.T) {
	if _, _, _, err := LogLinearFit([]float64{1, 2}, []float64{1, 0}); err == nil {
		t.Error("zero y must error")
	}
}

func TestPropertySummaryOrdering(t *testing.T) {
	// Property: min ≤ q1 ≤ median ≤ q3 ≤ max and min ≤ mean ≤ max.
	// Inputs are clamped to a sane magnitude: the sum in the mean is
	// allowed to overflow for inputs near ±MaxFloat64.
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) && math.Abs(v) < 1e12 {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		s := Summarize(xs)
		return s.Min <= s.Q1 && s.Q1 <= s.Median && s.Median <= s.Q3 &&
			s.Q3 <= s.Max && s.Min <= s.Mean+1e-9 && s.Mean <= s.Max+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyQuantileMonotone(t *testing.T) {
	f := func(raw []float64, q1Raw, q2Raw uint8) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		sort.Float64s(xs)
		qa := float64(q1Raw) / 255
		qb := float64(q2Raw) / 255
		if qa > qb {
			qa, qb = qb, qa
		}
		return Quantile(xs, qa) <= Quantile(xs, qb)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
