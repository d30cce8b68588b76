package faultsim

import (
	"context"
	"testing"

	"resmod/internal/apps"
	"resmod/internal/fpe"
	"resmod/internal/race"
	"resmod/internal/simmpi"
	"resmod/internal/stats"
)

// allocApp is a minimal benchmark application for allocation accounting:
// a short instrumented compute loop plus one collective, with small fixed
// outputs.  A real application draws its working set from the arena — what
// little each one's run still allocates is pinned by its own
// TestPooledRunAllocBounded (apptest) — so this app keeps the measurement
// on what the trial machinery around the run allocates: the plan draw, the
// world's per-run bookkeeping, the contamination comparison.
type allocApp struct{}

func (allocApp) Name() string         { return "alloctest" }
func (allocApp) Classes() []string    { return []string{"S"} }
func (allocApp) DefaultClass() string { return "S" }
func (allocApp) MaxProcs(string) int  { return 64 }
func (allocApp) Verify(golden, check []float64) bool {
	return apps.VerifyRel(golden, check, 1e-6)
}

func (allocApp) Run(fc *fpe.Ctx, comm *simmpi.Comm, _ string, _ *apps.Steps) (apps.RankOutput, error) {
	x := 1.0 + float64(comm.Rank())
	for i := 0; i < 512; i++ {
		x = fc.Add(fc.Mul(x, 1.0000001), 1e-6)
	}
	sum := comm.AllreduceValue(simmpi.OpSum, x)
	return apps.RankOutput{State: []float64{x, sum}, Check: []float64{sum}}, nil
}

// TestPooledTrialAllocBounded asserts that a steady-state pooled trial —
// plan draw, arena execution on a warmed arena, contamination comparison
// — stays under a fixed allocation bound, so a regression that reintroduces
// per-trial world or context construction fails the test rather than only
// shifting a benchmark number.
func TestPooledTrialAllocBounded(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts differ under the race detector")
	}
	golden, err := ComputeGolden(allocApp{}, "S", 4, apps.DefaultTimeout)
	if err != nil {
		t.Fatal(err)
	}
	c := Campaign{App: allocApp{}, Class: "S", Procs: 4, Trials: 1 << 30, Seed: 7}
	c = c.Normalized()
	base := stats.NewRNG(c.Seed)
	ctx := context.Background()
	arena := apps.NewArena()
	// Warm the arena so the measured runs are steady state.
	if _, err := runTrial(ctx, c, golden, nil, base.Split(0), arena, nil); err != nil {
		t.Fatal(err)
	}
	trial := uint64(0)
	avg := testing.AllocsPerRun(200, func() {
		trial++
		if _, err := runTrial(ctx, c, golden, nil, base.Split(trial), arena, nil); err != nil {
			t.Fatal(err)
		}
	})
	// The bound, 1.25 x what a trial measured when it was set, covers the
	// per-trial constants: the plan draw, the trial RNG split, the run's
	// closure and the app's small outputs — but not the world's inboxes or
	// per-rank context construction, which the arena amortizes away.
	const bound = 17
	t.Logf("pooled trial: %.1f allocs/run (pin %d)", avg, bound)
	if avg > bound {
		t.Errorf("pooled trial allocates %.1f allocs/run; want <= %d", avg, bound)
	}
}
