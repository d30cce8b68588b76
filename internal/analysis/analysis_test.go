package analysis

import (
	"testing"

	"resmod/internal/apps"

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

func TestConfigValidation(t *testing.T) {
	if _, err := TolSweep(Config{}, nil); err == nil {
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
