package faultsim

import (
	"math"
	"testing"
	"time"

	"resmod/internal/apps"
	"resmod/internal/fpe"
	"resmod/internal/simmpi"
	"resmod/internal/stats"

	_ "resmod/internal/apps/cg"
	_ "resmod/internal/apps/lu"
	_ "resmod/internal/apps/pennant"
)

func lookup(t testing.TB, name string) apps.App {
	t.Helper()
	a, err := apps.Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestComputeGolden(t *testing.T) {
	g, err := ComputeGolden(lookup(t, "CG"), "S", 4, apps.DefaultTimeout)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Counts) != 4 || len(g.States) != 4 {
		t.Fatalf("golden shape wrong: %d counts, %d states", len(g.Counts), len(g.States))
	}
	if g.TotalCounts().Total() == 0 {
		t.Fatal("golden has no ops")
	}
	if f := g.UniqueFraction(); f <= 0 || f > 0.2 {
		t.Fatalf("CG unique fraction = %g", f)
	}
	if _, ok := g.Regions["gather-guard"]; !ok {
		t.Fatalf("golden regions missing gather-guard: %v", g.Regions)
	}
}

func TestCampaignDeterministicAcrossWorkers(t *testing.T) {
	run := func(workers int) *Summary {
		s, err := Run(Campaign{
			App: lookup(t, "PENNANT"), Procs: 2, Trials: 24, Seed: 7,
			Workers: workers, Timeout: 20 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	a, b := run(1), run(4)
	if a.Rates != b.Rates {
		t.Fatalf("rates differ across worker counts: %+v vs %+v", a.Rates, b.Rates)
	}
	for i := range a.Hist.Counts {
		if a.Hist.Counts[i] != b.Hist.Counts[i] {
			t.Fatalf("histograms differ at bin %d", i)
		}
	}
}

func TestCampaignSeedSensitivity(t *testing.T) {
	run := func(seed uint64) stats64 {
		s, err := Run(Campaign{
			App: lookup(t, "PENNANT"), Procs: 1, Trials: 30, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		return stats64{s.Rates.Success, s.Rates.SDC}
	}
	// Different seeds should (almost surely) give different outcome splits
	// at this trial count; identical seeds must agree exactly.
	if run(1) != run(1) {
		t.Fatal("same seed not reproducible")
	}
}

type stats64 struct{ a, b float64 }

func TestCampaignRatesSumToOne(t *testing.T) {
	s, err := Run(Campaign{App: lookup(t, "PENNANT"), Procs: 2, Trials: 40, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s.Rates.Success+s.Rates.SDC+s.Rates.Failure-1) > 1e-12 {
		t.Fatalf("rates = %+v", s.Rates)
	}
	if s.Rates.N != 40 {
		t.Fatalf("N = %d", s.Rates.N)
	}
}

func TestConditionalRatesConsistentWithHist(t *testing.T) {
	s, err := Run(Campaign{App: lookup(t, "PENNANT"), Procs: 4, Trials: 40, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	var condTotal uint64
	for _, c := range s.ByContamination {
		condTotal += c.Total()
	}
	if condTotal != s.Hist.Total() {
		t.Fatalf("conditional totals %d != hist total %d", condTotal, s.Hist.Total())
	}
}

func TestSerialMultiErrorCampaign(t *testing.T) {
	s, err := Run(Campaign{
		App: lookup(t, "PENNANT"), Procs: 1, Trials: 20, Errors: 4,
		Region: CommonOnly, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	// With 4 catastrophic-or-not errors per test, fired injections should
	// average close to 4 (control-flow truncation can drop a few).
	if s.AvgFired < 2 || s.AvgFired > 4 {
		t.Fatalf("AvgFired = %g, want ~4", s.AvgFired)
	}
}

func TestUniqueOnlyRequiresUniqueOps(t *testing.T) {
	// PENNANT has no unique computation; a UniqueOnly campaign must fail.
	_, err := Run(Campaign{
		App: lookup(t, "PENNANT"), Procs: 2, Trials: 4, Region: UniqueOnly, Seed: 1,
	})
	if err == nil {
		t.Fatal("UniqueOnly campaign on an app without unique computation succeeded")
	}
	// CG has unique computation in parallel mode; it must work.
	s, err := Run(Campaign{
		App: lookup(t, "CG"), Procs: 2, Trials: 6, Region: UniqueOnly, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.Rates.N != 6 {
		t.Fatalf("N = %d", s.Rates.N)
	}
}

func TestCampaignValidation(t *testing.T) {
	if _, err := Run(Campaign{}); err == nil {
		t.Fatal("nil app accepted")
	}
	if _, err := Run(Campaign{App: lookup(t, "CG"), Procs: 0, Trials: 1}); err == nil {
		t.Fatal("Procs=0 accepted")
	}
	if _, err := Run(Campaign{App: lookup(t, "CG"), Procs: 1, Trials: 0}); err == nil {
		t.Fatal("Trials=0 accepted")
	}
}

// ---- harness failure-injection: crashing and hanging applications --------

// crashApp panics mid-run when an injection plan is present.
type crashApp struct{}

func (crashApp) Name() string               { return "crash-test" }
func (crashApp) Classes() []string          { return []string{"X"} }
func (crashApp) DefaultClass() string       { return "X" }
func (crashApp) MaxProcs(string) int        { return 8 }
func (crashApp) Verify(g, c []float64) bool { return apps.VerifyRel(g, c, 1e-12) }

func (crashApp) Run(fc *fpe.Ctx, comm *simmpi.Comm, class string, _ *apps.Steps) (apps.RankOutput, error) {
	s := 0.0
	for i := 0; i < 100; i++ {
		s = fc.Add(s, float64(i))
	}
	if fc.Fired() > 0 {
		panic("corrupted state")
	}
	return apps.RankOutput{State: []float64{s}, Check: []float64{s}}, nil
}

func TestCrashClassifiedAsFailure(t *testing.T) {
	s, err := Run(Campaign{App: crashApp{}, Procs: 2, Trials: 10, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if s.Rates.Failure != 1 {
		t.Fatalf("crash rates = %+v, want all failures", s.Rates)
	}
}

// hangApp blocks forever when an injection fires: every rank it leaves
// unfinished is blocked, so the world fails at once as a hang.
type hangApp struct{}

func (hangApp) Name() string               { return "hang-test" }
func (hangApp) Classes() []string          { return []string{"X"} }
func (hangApp) DefaultClass() string       { return "X" }
func (hangApp) MaxProcs(string) int        { return 8 }
func (hangApp) Verify(g, c []float64) bool { return apps.VerifyRel(g, c, 1e-12) }

func (hangApp) Run(fc *fpe.Ctx, comm *simmpi.Comm, class string, _ *apps.Steps) (apps.RankOutput, error) {
	s := 0.0
	for i := 0; i < 100; i++ {
		s = fc.Add(s, float64(i))
	}
	if fc.Fired() > 0 {
		// Wait for a message that never comes: a hang.
		comm.Recv((comm.Rank()+1)%comm.Size(), 999)
	}
	return apps.RankOutput{State: []float64{s}, Check: []float64{s}}, nil
}

// spinApp livelocks when an injection fires: the rank exchanges messages
// with itself until the world is ended, by its watchdog or its context.
type spinApp struct{ hangApp }

func (spinApp) Name() string { return "spin-test" }

func (spinApp) Run(fc *fpe.Ctx, comm *simmpi.Comm, class string, _ *apps.Steps) (apps.RankOutput, error) {
	s := 0.0
	for i := 0; i < 100; i++ {
		s = fc.Add(s, float64(i))
	}
	for fc.Fired() > 0 {
		comm.SendValue(comm.Rank(), 999, s)
		s = comm.RecvValue(comm.Rank(), 999)
	}
	return apps.RankOutput{State: []float64{s}, Check: []float64{s}}, nil
}

// TestHangClassifiedAsFailure: a deadlocked trial is a Failure, found
// without waiting out the trial's Timeout.
func TestHangClassifiedAsFailure(t *testing.T) {
	c := Campaign{
		App: hangApp{}, Procs: 2, Trials: 4, Seed: 2,
		Timeout: 300 * time.Millisecond,
	}
	start := time.Now()
	s, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if s.Rates.Failure != 1 {
		t.Fatalf("hang rates = %+v, want all failures", s.Rates)
	}
	if elapsed := time.Since(start); elapsed >= c.Timeout {
		t.Fatalf("a campaign of %d hung trials took %v, one Timeout is %v", c.Trials, elapsed, c.Timeout)
	}
}

// uniqueHeavyApp spends ~90% of its dynamic operations in a
// parallel-unique region — the regression fixture for the drawFor
// AnyRegion multi-error bug, where k>1 plans silently fell back to the
// common stream and could never strike the unique computation.
type uniqueHeavyApp struct{}

func (uniqueHeavyApp) Name() string               { return "unique-heavy-test" }
func (uniqueHeavyApp) Classes() []string          { return []string{"X"} }
func (uniqueHeavyApp) DefaultClass() string       { return "X" }
func (uniqueHeavyApp) MaxProcs(string) int        { return 8 }
func (uniqueHeavyApp) Verify(g, c []float64) bool { return apps.VerifyRel(g, c, 1e-12) }

func (uniqueHeavyApp) Run(fc *fpe.Ctx, comm *simmpi.Comm, class string, _ *apps.Steps) (apps.RankOutput, error) {
	s := 0.0
	for i := 0; i < 100; i++ {
		s = fc.Add(s, float64(i))
	}
	if comm.Size() > 1 {
		end := fc.Begin("unique-bulk", fpe.Unique)
		for i := 0; i < 900; i++ {
			s = fc.Add(s, 1.0/float64(i+1))
		}
		end()
	}
	return apps.RankOutput{State: []float64{s}, Check: []float64{s}}, nil
}

func TestAnyRegionMultiErrorCoversUniqueStream(t *testing.T) {
	// Regression: drawFor used to route AnyRegion plans with Errors > 1
	// through the CommonOnly drawer, so multi-error parallel deployments
	// on an app dominated by parallel-unique computation never injected
	// there.  The fixed drawer must hit the unique stream in roughly its
	// dynamic-op weight (~0.9 here).
	g, err := ComputeGolden(uniqueHeavyApp{}, "X", 2, apps.DefaultTimeout)
	if err != nil {
		t.Fatal(err)
	}
	c := Campaign{App: uniqueHeavyApp{}, Procs: 2, Trials: 1, Errors: 3, Seed: 6}
	c = c.Normalized()
	rng := stats.NewRNG(99)
	uniqueHits, draws := 0, 0
	for i := 0; i < 500; i++ {
		plan, err := drawFor(c, g, rng, i%2, c.Errors)
		if err != nil {
			t.Fatal(err)
		}
		if len(plan) != 3 {
			t.Fatalf("plan length %d, want 3", len(plan))
		}
		for _, inj := range plan {
			if inj.Class == fpe.Unique {
				uniqueHits++
			}
			draws++
		}
	}
	frac := float64(uniqueHits) / float64(draws)
	if frac < 0.8 {
		t.Fatalf("unique fraction %g, want ~0.9 (0 means the CommonOnly fallback is back)", frac)
	}

	// End-to-end: the same campaign shape must run, fire multiple errors
	// per trial, and classify every trial.
	sum, err := Run(Campaign{
		App: uniqueHeavyApp{}, Procs: 2, Trials: 30, Errors: 3, Seed: 12,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Rates.N != 30 {
		t.Fatalf("N = %d, want 30", sum.Rates.N)
	}
	if sum.AvgFired < 2 {
		t.Fatalf("AvgFired = %g, want ~3", sum.AvgFired)
	}
}

func TestContaminationSpreadsInCG(t *testing.T) {
	// In an 8-rank CG campaign a visible fraction of trials should
	// contaminate all 8 ranks (the allreduce channel) and another
	// fraction only 1 (masked locally) — the paper's Figure 1 shape.
	s, err := Run(Campaign{App: lookup(t, "CG"), Procs: 8, Trials: 30, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	probs := s.Hist.Probabilities()
	if probs[0]+probs[7] < 0.6 {
		t.Fatalf("CG propagation not bimodal: %v", probs)
	}
}

func TestSpreadByDistanceLUNeighbourly(t *testing.T) {
	// LU's pipeline spreads to ring neighbours: distance-1 contamination
	// should clearly exceed the far distances (excluding distance 0, the
	// injected rank itself).
	s, err := Run(Campaign{App: lookup(t, "LU"), Procs: 8, Trials: 40, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	sp := s.SpreadByDistance
	if len(sp) != 5 { // distances 0..4 on a ring of 8
		t.Fatalf("spread length %d", len(sp))
	}
	if sp[0] == 0 {
		t.Fatal("injected rank never contaminated")
	}
	var total uint64
	for _, c := range sp {
		total += c
	}
	if total == 0 {
		t.Fatal("no contamination recorded at all")
	}
}

func TestRingDistance(t *testing.T) {
	cases := []struct{ a, b, p, want int }{
		{0, 0, 8, 0}, {0, 1, 8, 1}, {0, 7, 8, 1}, {0, 4, 8, 4}, {2, 6, 8, 4}, {1, 6, 8, 3},
	}
	for _, c := range cases {
		if got := ringDistance(c.a, c.b, c.p); got != c.want {
			t.Fatalf("ringDistance(%d,%d,%d) = %d, want %d", c.a, c.b, c.p, got, c.want)
		}
	}
}
