package analysis

import (
	"math"
	"testing"

	"resmod/internal/apps"
	"resmod/internal/fpe"

	_ "resmod/internal/apps/lu"
	_ "resmod/internal/apps/pennant"
)

func cfg(t *testing.T, name string, trials int) Config {
	t.Helper()
	a, err := apps.Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	return Config{App: a, Procs: 1, Trials: trials, Seed: 77}
}

func TestDefaultBitBandsCoverWord(t *testing.T) {
	bands := DefaultBitBands()
	covered := make([]bool, 64)
	for _, b := range bands {
		for bit := b.Lo; bit <= b.Hi; bit++ {
			if covered[bit] {
				t.Fatalf("bit %d covered twice", bit)
			}
			covered[bit] = true
		}
	}
	for bit, ok := range covered {
		if !ok {
			t.Fatalf("bit %d uncovered", bit)
		}
	}
}

func TestBitSweepMonotonicSeverity(t *testing.T) {
	// Low mantissa bits must be masked far more often than exponent bits —
	// the fundamental severity gradient of IEEE-754 bit flips.
	points, err := BitSweep(cfg(t, "PENNANT", 60), nil)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]float64{}
	for _, p := range points {
		byName[p.Band.Name] = p.Rates.Success
	}
	if byName["mantissa-low"] <= byName["exponent"] {
		t.Fatalf("mantissa-low success %.2f <= exponent success %.2f",
			byName["mantissa-low"], byName["exponent"])
	}
	if byName["mantissa-low"] < 0.5 {
		t.Fatalf("mantissa-low success %.2f suspiciously low", byName["mantissa-low"])
	}
}

func TestBitSweepRejectsBadBand(t *testing.T) {
	_, err := BitSweep(cfg(t, "PENNANT", 4), []BitBand{{Name: "bad", Lo: 10, Hi: 90}})
	if err == nil {
		t.Fatal("invalid band accepted")
	}
}

func TestKindSweepRuns(t *testing.T) {
	points, err := KindSweep(cfg(t, "LU", 30))
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 {
		t.Fatalf("%d points", len(points))
	}
	for _, p := range points {
		if p.Rates.N == 0 {
			t.Fatalf("%s: empty rates", p.Name)
		}
		if math.Abs(p.Rates.Success+p.Rates.SDC+p.Rates.Failure-1) > 1e-12 {
			t.Fatalf("%s: rates don't sum to 1", p.Name)
		}
	}
}

func TestPhaseSweepLateInjectionsMoreMasked(t *testing.T) {
	// For iterative solvers, errors injected into the final window have
	// fewer chances to corrupt the verified output's history... but also
	// less time to be damped.  At minimum the sweep must produce n valid
	// windows with sane rates.
	points, err := PhaseSweep(cfg(t, "LU", 40), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 {
		t.Fatalf("%d points", len(points))
	}
	for i, p := range points {
		if p.Window[0] != float64(i)/3 {
			t.Fatalf("window %d = %+v", i, p.Window)
		}
		if p.Rates.N == 0 {
			t.Fatal("empty rates")
		}
	}
	if _, err := PhaseSweep(cfg(t, "LU", 4), 0); err == nil {
		t.Fatal("zero windows accepted")
	}
}

func TestPatternSweepSeverityOrdering(t *testing.T) {
	points, err := PatternSweep(cfg(t, "PENNANT", 80))
	if err != nil {
		t.Fatal(err)
	}
	rates := map[fpe.Pattern]float64{}
	for _, p := range points {
		rates[p.Pattern] = p.Rates.Success
	}
	// A random 64-bit corruption is at least as severe (no more likely to
	// be masked) than a single-bit flip, with slack for sampling noise.
	if rates[fpe.WordRandom] > rates[fpe.SingleBit]+0.1 {
		t.Fatalf("word-random success %.2f exceeds single-bit %.2f",
			rates[fpe.WordRandom], rates[fpe.SingleBit])
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := KindSweep(Config{}); err == nil {
		t.Fatal("nil app accepted")
	}
}

func TestTolSweepMonotoneContamination(t *testing.T) {
	// Looser tolerance -> fewer ranks count as contaminated; bit-exact is
	// the upper bound.
	c := cfg(t, "PENNANT", 40)
	c.Procs = 4
	points, err := TolSweep(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 4 {
		t.Fatalf("%d points", len(points))
	}
	for i := 1; i < len(points); i++ {
		if points[i].MeanContaminated > points[i-1].MeanContaminated+1e-9 {
			t.Fatalf("contamination not monotone in tolerance: %+v", points)
		}
	}
	if points[0].Tol >= 0 {
		t.Fatal("first point should be bit-exact")
	}
}
