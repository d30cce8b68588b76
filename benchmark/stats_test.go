package main

import (
	"math"
	"testing"
)

func TestPercentileIsExact(t *testing.T) {
	samples := []float64{9, 1, 5, 3, 7, 2, 8, 4, 6, 10}
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.1, 1}, {0.5, 5}, {0.95, 10}, {0.9, 9}, {1, 10},
	} {
		if got := percentile(samples, c.q); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v (a sample, never an interpolation)", c.q, got, c.want)
		}
	}
	if samples[0] != 9 {
		t.Error("percentile reordered its input")
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(v, n=4),
// the rule the benchmark contract states its spread in.
func TestQuartilesMatchPython(t *testing.T) {
	// >>> statistics.quantiles([2.1, 2.4, 2.2, 3.0, 2.6, 2.3, 2.5, 2.2, 2.8, 2.4], n=4)
	// [2.2, 2.4, 2.65]
	q1, q3 := quartiles([]float64{2.1, 2.4, 2.2, 3.0, 2.6, 2.3, 2.5, 2.2, 2.8, 2.4})
	if math.Abs(q1-2.2) > 1e-12 || math.Abs(q3-2.65) > 1e-12 {
		t.Errorf("quartiles = %v, %v; Python gives 2.2, 2.65", q1, q3)
	}
	// >>> statistics.quantiles([1, 2], n=4)  ->  [0.75, 1.5, 2.25]
	if q1, q3 := quartiles([]float64{1, 2}); q1 != 0.75 || q3 != 2.25 {
		t.Errorf("two-sample quartiles = %v, %v; Python gives 0.75, 2.25", q1, q3)
	}
}
