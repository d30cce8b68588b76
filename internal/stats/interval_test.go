package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestWilsonIntervalKnown(t *testing.T) {
	// 50/100 at z=1.96: the Wilson interval is approximately [0.404, 0.596].
	lo, hi := WilsonInterval(50, 100, 1.96)
	if math.Abs(lo-0.404) > 0.005 || math.Abs(hi-0.596) > 0.005 {
		t.Fatalf("interval = [%g, %g]", lo, hi)
	}
}

func TestWilsonIntervalEdges(t *testing.T) {
	lo, hi := WilsonInterval(0, 0, 1.96)
	if lo != 0 || hi != 1 {
		t.Fatalf("empty interval = [%g, %g]", lo, hi)
	}
	lo, hi = WilsonInterval(0, 50, 1.96)
	if lo != 0 || hi <= 0 || hi > 0.15 {
		t.Fatalf("all-failure interval = [%g, %g]", lo, hi)
	}
	lo, hi = WilsonInterval(50, 50, 1.96)
	if hi != 1 || lo < 0.85 {
		t.Fatalf("all-success interval = [%g, %g]", lo, hi)
	}
}

// Properties: the interval is ordered, bounded, contains the point
// estimate, and narrows as n grows.
func TestWilsonIntervalProperties(t *testing.T) {
	f := func(sRaw, nRaw uint16) bool {
		n := uint64(nRaw%2000) + 1
		s := uint64(sRaw) % (n + 1)
		lo, hi := WilsonInterval(s, n, 1.96)
		p := float64(s) / float64(n)
		if !(0 <= lo && lo <= hi && hi <= 1) {
			return false
		}
		if p < lo-1e-12 || p > hi+1e-12 {
			return false
		}
		lo2, hi2 := WilsonInterval(s*10, n*10, 1.96)
		return hi2-lo2 <= hi-lo+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestIntervals95AllOutcomes(t *testing.T) {
	c := Counter{Success: 60, SDC: 30, Failure: 10}
	r := c.Rates()
	iv := r.Intervals95()
	for _, tc := range []struct {
		name string
		rate float64
		iv   Interval
	}{
		{"success", r.Success, iv.Success},
		{"sdc", r.SDC, iv.SDC},
		{"failure", r.Failure, iv.Failure},
	} {
		if !(0 <= tc.iv.Lo && tc.iv.Lo < tc.rate && tc.rate < tc.iv.Hi && tc.iv.Hi <= 1) {
			t.Errorf("%s: interval [%g, %g] does not bracket rate %g",
				tc.name, tc.iv.Lo, tc.iv.Hi, tc.rate)
		}
		if w := tc.iv.Width(); math.Abs(w-(tc.iv.Hi-tc.iv.Lo)) > 1e-15 {
			t.Errorf("%s: Width() = %g, want %g", tc.name, w, tc.iv.Hi-tc.iv.Lo)
		}
	}
}

func TestIntervals95MatchesWilsonOnRawTallies(t *testing.T) {
	// interval95 reconstructs the tally from the normalized rate; for
	// exact tallies the round-trip must land on the same Wilson bounds.
	c := Counter{Success: 123, SDC: 45, Failure: 232}
	iv := c.Rates().Intervals95()
	lo, hi := WilsonInterval(123, 400, 1.96)
	if math.Abs(iv.Success.Lo-lo) > 1e-12 || math.Abs(iv.Success.Hi-hi) > 1e-12 {
		t.Fatalf("success interval [%g, %g], want [%g, %g]", iv.Success.Lo, iv.Success.Hi, lo, hi)
	}
	lo, hi = WilsonInterval(232, 400, 1.96)
	if math.Abs(iv.Failure.Lo-lo) > 1e-12 || math.Abs(iv.Failure.Hi-hi) > 1e-12 {
		t.Fatalf("failure interval [%g, %g], want [%g, %g]", iv.Failure.Lo, iv.Failure.Hi, lo, hi)
	}
}
