package ep

import (
	"math"
	"testing"

	"resmod/internal/apps"
	"resmod/internal/apps/apptest"
	"resmod/internal/faultsim"
)

func TestConformance(t *testing.T) {
	apptest.Conformance(t, App{}, apptest.Options{
		Procs:      []int{2, 4, 8},
		WantUnique: false,
	})
}

func TestLCGJumpMatchesSequential(t *testing.T) {
	// lcgAt must equal stepping the generator k times.
	x := uint64(271828183)
	for k := uint64(0); k < 200; k++ {
		if got := lcgAt(271828183, k); got != x {
			t.Fatalf("lcgAt(%d) = %d, want %d", k, got, x)
		}
		x = (x * lcgA) & lcgMsk
	}
}

func TestLcgPowIdentities(t *testing.T) {
	if lcgPow(lcgA, 0) != 1 {
		t.Fatal("a^0 != 1")
	}
	if lcgPow(lcgA, 1) != lcgA {
		t.Fatal("a^1 != a")
	}
	// a^(m+n) == a^m * a^n mod 2^46.
	m, n := uint64(12345), uint64(6789)
	lhs := lcgPow(lcgA, m+n)
	rhs := (lcgPow(lcgA, m) * lcgPow(lcgA, n)) & lcgMsk
	if lhs != rhs {
		t.Fatalf("exponent law violated: %d vs %d", lhs, rhs)
	}
}

func TestGaussianMoments(t *testing.T) {
	// The accepted deviates are standard normal: the sums over ~10k pairs
	// divided by the count should be near zero, and nearly all samples in
	// the first few annuli.
	res := apps.Execute(App{}, "S", 1, nil, apps.DefaultTimeout)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	check := res.Outputs[0].Check
	sx, sy := check[0], check[1]
	var total float64
	for _, c := range check[2:] {
		total += c
	}
	if total < float64(classes["S"].pairs)/2 {
		t.Fatalf("acceptance too low: %g of %d", total, classes["S"].pairs)
	}
	if math.Abs(sx)/total > 0.05 || math.Abs(sy)/total > 0.05 {
		t.Fatalf("sample means too large: %g %g over %g", sx, sy, total)
	}
	// max(|X|,|Y|) < 1 with probability ~0.68^2 ~ 0.47.
	if check[2] < 0.4*total || check[2] > 0.55*total {
		t.Fatalf("annulus 0 has %g of %g", check[2], total)
	}
}

func TestNoPropagationBeyondInjectedRank(t *testing.T) {
	// EP's defining property: every completed test contaminates exactly
	// one rank (or zero, recorded as one).
	sum, err := faultsim.Run(faultsim.Campaign{
		App: App{}, Procs: 8, Trials: 40, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	probs := sum.Hist.Probabilities()
	if probs[0] < 0.999 {
		t.Fatalf("EP propagation profile not a single spike: %v", probs)
	}
}

// TestPooledRunAllocBounded pins a steady-state run's allocation at 1.25 x
// what it measured when the pins were set: its working set, made once.
func TestPooledRunAllocBounded(t *testing.T) {
	apptest.AllocBounded(t, App{}, map[int]apptest.Alloc{
		1:  {Bytes: 1170, Objects: 17},
		4:  {Bytes: 2700, Objects: 40},
		16: {Bytes: 8980, Objects: 131},
		64: {Bytes: 33800, Objects: 495},
	})
}
