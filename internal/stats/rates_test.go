package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestCounterRates(t *testing.T) {
	c := Counter{Success: 20, SDC: 70, Failure: 10}
	r := c.Rates()
	if r.Success != 0.2 || r.SDC != 0.7 || r.Failure != 0.1 || r.N != 100 {
		t.Fatalf("rates = %+v", r)
	}
}

func TestCounterMerge(t *testing.T) {
	a, b := Counter{Success: 1, SDC: 1}, Counter{Failure: 2}
	a.Merge(b)
	if a.Total() != 4 || a.Failure != 2 {
		t.Fatalf("merged = %+v", a)
	}
}

func TestEmptyCounterRates(t *testing.T) {
	var c Counter
	r := c.Rates()
	if r.Success != 0 || r.SDC != 0 || r.Failure != 0 || r.N != 0 {
		t.Fatalf("empty rates = %+v", r)
	}
}

// Property: rates always sum to 1 for any non-empty counter.
func TestRatesSumToOne(t *testing.T) {
	f := func(s, d, fl uint8) bool {
		c := Counter{Success: uint64(s), SDC: uint64(d), Failure: uint64(fl)}
		if c.Total() == 0 {
			return true
		}
		r := c.Rates()
		return math.Abs(r.Success+r.SDC+r.Failure-1) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRatesScalePlus(t *testing.T) {
	a := Rates{Success: 0.5, SDC: 0.3, Failure: 0.2}
	b := Rates{Success: 0.1, SDC: 0.1, Failure: 0.8}
	mix := a.Scale(0.75).Plus(b.Scale(0.25))
	if math.Abs(mix.Success-0.4) > 1e-12 || math.Abs(mix.Failure-0.35) > 1e-12 {
		t.Fatalf("mix = %+v", mix)
	}
	if math.Abs(mix.Success+mix.SDC+mix.Failure-1) > 1e-12 {
		t.Fatal("convex combination does not sum to 1")
	}
}

func TestRatesString(t *testing.T) {
	r := Rates{Success: 0.2, SDC: 0.7, Failure: 0.1, N: 100}
	s := r.String()
	if !strings.Contains(s, "success=20.0%") || !strings.Contains(s, "n=100") {
		t.Fatalf("String() = %q", s)
	}
}
