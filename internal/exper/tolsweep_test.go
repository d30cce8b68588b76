package exper

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"resmod/internal/faultsim"
)

func TestTolSweepUnknownApp(t *testing.T) {
	if _, err := TolSweep(tiny(t), "nope", "", 4); err == nil {
		t.Fatal("unknown app accepted")
	}
}

func TestTolSweepMonotoneContamination(t *testing.T) {
	// Looser tolerance -> fewer ranks count as contaminated; bit-exact is
	// the upper bound.
	a, err := TolSweep(NewSession(Config{Trials: 40, Seed: 77}), "PENNANT", "", 4)
	if err != nil {
		t.Fatal(err)
	}
	points := a.Tols
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

// countCampaigns returns a session config that counts the campaigns the
// session executes.
func countCampaigns(n *atomic.Int64) Config {
	return Config{Trials: 12, Seed: 42,
		OnCampaign: func(string, *faultsim.Summary) { n.Add(1) }}
}

// TestTolSweepObeysSessionContext: the ablate row runs its campaigns under
// the session's context, so a cancelled session executes none of them.
func TestTolSweepObeysSessionContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var n atomic.Int64
	cfg := countCampaigns(&n)
	cfg.Ctx = ctx
	row, _ := Lookup("ablate")
	_, err := row.Run(NewSession(cfg), Params{App: "PENNANT", Small: 4})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if n.Load() != 0 {
		t.Fatalf("%d campaigns executed under a cancelled session", n.Load())
	}
}

// TestTolSweepSharesSessionCampaigns: the sweep's default-tolerance point
// is the session's single-error campaign, so after that has run the sweep
// executes only its three other points — and the session counts them.
func TestTolSweepSharesSessionCampaigns(t *testing.T) {
	var n atomic.Int64
	s := NewSession(countCampaigns(&n))
	app, err := resolveApps([]string{"PENNANT"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Campaign(app[0], "", 4, 1, faultsim.AnyRegion); err != nil {
		t.Fatal(err)
	}
	n.Store(0)
	row, _ := Lookup("ablate")
	if _, err := row.Run(s, Params{App: "PENNANT", Small: 4}); err != nil {
		t.Fatal(err)
	}
	if n.Load() != 3 {
		t.Fatalf("the sweep executed %d campaigns, want 3", n.Load())
	}
}
