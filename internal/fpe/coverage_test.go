package fpe_test

import (
	"testing"

	"resmod/internal/apps"
	"resmod/internal/exper"
)

// TestWindowCoverageParallel is TestWindowCoverage at p = 4, where FT's
// transposes stage a tenth of its ops through the Unique region: a paper
// app with under 95 % of a clean p = 4 run's ops windowed fails.
func TestWindowCoverageParallel(t *testing.T) {
	for _, name := range exper.PaperBenchmarks {
		app, err := apps.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		res := execute(app, 4, nil, true)
		if res.Err != nil {
			t.Fatalf("%s: %v", name, res.Err)
		}
		var tallied, total uint64
		for _, c := range res.Ctxs {
			tallied += c.Tallied()
			total += c.Counts().Total()
		}
		share := float64(tallied) / float64(total)
		t.Logf("%-8s p=4: %5.1f %% of %d ops windowed", name, 100*share, total)
		if share < 0.95 {
			t.Errorf("%s: %.1f %% of a clean p=4 run's ops windowed, want >= 95 %%", name, 100*share)
		}
	}
}
