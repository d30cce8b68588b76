package fpe_test

import (
	"testing"

	"resmod/internal/apps"
	"resmod/internal/exper"
	"resmod/internal/fpe"
	"resmod/internal/stats"
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

// TestWindowCoverageInjected: a serial run with 16 faults books at least
// 95 % of its ops by the window, as a clean one does.  A window ends at the
// trigger — a due injection sends one plane, row block, zone block or
// vector element down the per-op path, not a kernel's whole call.
func TestWindowCoverageInjected(t *testing.T) {
	for _, name := range exper.PaperBenchmarks {
		app, err := apps.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		clean := execute(app, 1, nil, true)
		if clean.Err != nil {
			t.Fatalf("%s: %v", name, clean.Err)
		}
		plan, err := fpe.DrawPlanAnyRegion(stats.NewRNG(16), clean.Ctxs[0].Counts(), 16)
		if err != nil {
			t.Fatal(err)
		}
		res := execute(app, 1, map[int][]fpe.Injection{0: plan}, true)
		if res.Err != nil {
			t.Fatalf("%s with 16 faults: %v", name, res.Err)
		}
		c := res.Ctxs[0]
		share := float64(c.Tallied()) / float64(c.Counts().Total())
		t.Logf("%-8s p=1, 16 faults: %5.1f %% of %d ops windowed", name, 100*share, c.Counts().Total())
		if share < 0.95 {
			t.Errorf("%s: %.1f %% of a 16-fault serial run's ops windowed, want >= 95 %%", name, 100*share)
		}
	}
}
