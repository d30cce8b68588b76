package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestCosineIdentical(t *testing.T) {
	v := []float64{0.77, 0.01, 0.0, 0.22}
	c, err := Cosine(v, v)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(c-1) > 1e-12 {
		t.Fatalf("cosine of identical vectors = %g, want 1", c)
	}
}

func TestCosineOrthogonal(t *testing.T) {
	c, err := Cosine([]float64{1, 0}, []float64{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if c != 0 {
		t.Fatalf("cosine of orthogonal vectors = %g, want 0", c)
	}
}

func TestCosineScaleInvariance(t *testing.T) {
	a := []float64{0.2, 0.3, 0.5}
	b := []float64{2, 3, 5}
	c, err := Cosine(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(c-1) > 1e-12 {
		t.Fatalf("cosine of scaled vectors = %g, want 1", c)
	}
}

func TestCosineZeroVectors(t *testing.T) {
	if c, _ := Cosine([]float64{0, 0}, []float64{0, 0}); c != 1 {
		t.Fatalf("cosine(0,0) = %g, want 1", c)
	}
	if c, _ := Cosine([]float64{0, 0}, []float64{1, 0}); c != 0 {
		t.Fatalf("cosine(0,v) = %g, want 0", c)
	}
}

func TestCosineDimensionErrors(t *testing.T) {
	if _, err := Cosine(nil, nil); err == nil {
		t.Fatal("empty vectors accepted")
	}
	if _, err := Cosine([]float64{1}, []float64{1, 2}); err == nil {
		t.Fatal("mismatched lengths accepted")
	}
}

// Property: cosine of non-negative vectors lies in [0, 1] (the bound the
// paper states for its histogram vectors).
func TestCosineBoundsNonNegative(t *testing.T) {
	f := func(raw [6]uint8, raw2 [6]uint8) bool {
		a := make([]float64, 6)
		b := make([]float64, 6)
		for i := range a {
			a[i] = float64(raw[i])
			b[i] = float64(raw2[i])
		}
		c, err := Cosine(a, b)
		if err != nil {
			return false
		}
		return c >= -1e-12 && c <= 1+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestCosineSymmetry(t *testing.T) {
	f := func(raw, raw2 [5]int8) bool {
		a := make([]float64, 5)
		b := make([]float64, 5)
		for i := range a {
			a[i] = float64(raw[i])
			b[i] = float64(raw2[i])
		}
		c1, err1 := Cosine(a, b)
		c2, err2 := Cosine(b, a)
		if err1 != nil || err2 != nil {
			return false
		}
		return math.Abs(c1-c2) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestRMSEKnown(t *testing.T) {
	// Paper Eq. 9 with two benchmarks: errors 0.3 and 0.4 -> sqrt(0.125).
	got, err := RMSE([]float64{0.5, 0.9}, []float64{0.2, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	want := math.Sqrt((0.09 + 0.16) / 2)
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("RMSE = %g, want %g", got, want)
	}
}

func TestRMSEZeroForExact(t *testing.T) {
	v := []float64{0.1, 0.2, 0.3}
	got, err := RMSE(v, v)
	if err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Fatalf("RMSE of identical vectors = %g", got)
	}
}

func TestRMSEBounds(t *testing.T) {
	// Property: mean |a-b| <= RMSE <= max |a-b|.
	f := func(raw, raw2 [4]uint8) bool {
		a := make([]float64, 4)
		b := make([]float64, 4)
		var m, x float64
		for i := range a {
			a[i] = float64(raw[i]) / 255
			b[i] = float64(raw2[i]) / 255
			d := math.Abs(a[i] - b[i])
			m += d / 4
			x = max(x, d)
		}
		r, _ := RMSE(a, b)
		return m <= r+1e-12 && r <= x+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestMeanVariance(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	if m := Mean(xs); m != 2.5 {
		t.Fatalf("Mean = %g", m)
	}
	if v := Variance(xs); math.Abs(v-1.25) > 1e-12 {
		t.Fatalf("Variance = %g", v)
	}
	if Mean(nil) != 0 || Variance(nil) != 0 || Variance([]float64{5}) != 0 {
		t.Fatal("degenerate inputs not zero")
	}
}
