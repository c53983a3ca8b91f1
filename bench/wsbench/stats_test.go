package main

import (
	"math"
	"testing"
)

// The expected values are Python's statistics.quantiles(xs, n=4) and
// statistics.median(xs), the definitions the benchmark's spreads are
// checked against.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs          []float64
		q1, med, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5}, 1.5, 3, 4.5},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{10, 20, 30, 40}, 12.5, 25, 37.5},
		{[]float64{5, 1, 4, 2, 3, 9, 7, 8, 6, 10}, 2.75, 5.5, 8.25},
		{[]float64{7}, 7, 7, 7},
		{nil, 0, 0, 0},
	} {
		q1, med, q3 := quartiles(tc.xs)
		if q1 != tc.q1 || med != tc.med || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v, %v, %v; want %v, %v, %v", tc.xs, q1, med, q3, tc.q1, tc.med, tc.q3)
		}
	}
}

func TestQuartilesLeaveInputUnsorted(t *testing.T) {
	xs := []float64{3, 1, 2}
	quartiles(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("quartiles reordered its input: %v", xs)
	}
}

func TestSummarySpread(t *testing.T) {
	s := summarize([]float64{10, 20, 30, 40})
	if got := s.spread(); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %v, want (37.5-12.5)/25 = 1", got)
	}
	if s.N != 4 {
		t.Errorf("N = %d", s.N)
	}
	if got := summarize(nil).spread(); got != 0 {
		t.Errorf("empty spread = %v, want 0", got)
	}
}
