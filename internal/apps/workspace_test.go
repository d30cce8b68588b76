package apps_test

import (
	"context"
	"fmt"
	"math"
	"testing"
	"time"

	"resmod/internal/apps"
	"resmod/internal/faultsim"
	"resmod/internal/fpe"
	"resmod/internal/stats"
)

// TestReusedWorkspaceIsInvisible guards what a working set kept across
// executions can get wrong: a read of an array that a previous run, trial
// or app left behind, which would be a silently different number.  With
// every rank's working set filled with NaN before a reused arena's next
// run, each paper app runs on one arena at p = 1, 4 and 16 — clean, then
// with 16 faults, then clean, then the next app — and every run must equal
// a fresh execution: each rank's State and Check bits, KindCounts and
// fired Records, or else the same kind of failure.
func TestReusedWorkspaceIsInvisible(t *testing.T) {
	apps.PoisonWorkingSets(true)
	defer apps.PoisonWorkingSets(false)
	for _, p := range []int{1, 4, 16} {
		arena := apps.NewArena()
		for _, name := range []string{"CG", "FT", "MG", "LU", "MiniFE", "PENNANT"} {
			app, err := apps.Lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			clean := run(t, app, p, nil, nil)
			plan, err := fpe.DrawPlanAnyRegion(stats.NewRNG(uint64(p)), clean.Ctxs[p/2].Counts(), 16)
			if err != nil {
				t.Fatal(err)
			}
			faults := map[int][]fpe.Injection{p / 2: plan}
			faulty := run(t, app, p, faults, nil)
			for i, step := range []struct {
				plans map[int][]fpe.Injection
				want  apps.ExecResult
			}{{nil, clean}, {faults, faulty}, {nil, clean}} {
				got := arena.ExecuteSteps(context.Background(), app, app.DefaultClass(), p, step.plans, 10*time.Second, nil)
				what := fmt.Sprintf("%s p=%d pooled run %d", name, p, i)
				if msg := sameTrial(step.want, got, step.plans); msg != "" {
					t.Fatalf("%s: %s differs from a fresh run's", what, msg)
				}
				for r := range got.Ctxs {
					if g, w := got.Ctxs[r].KindCounts(), step.want.Ctxs[r].KindCounts(); g != w {
						t.Fatalf("%s: rank %d op counts %+v, a fresh run's %+v", what, r, g, w)
					}
				}
			}
		}
	}
}

// TestZeroPlaneStaysZero: the plane of zeros every stencil reads past a
// domain edge (apps.Layer) is shared by every rank of every run, so a
// kernel that wrote to what it read there would change every later run's
// answer.  After a campaign of each paper app at p = 1 and 4 — clean
// golden runs and trials of three faults each, so the per-op paths run as
// well as the windows — it must still be all zeros.
func TestZeroPlaneStaysZero(t *testing.T) {
	for _, name := range []string{"CG", "FT", "MG", "LU", "MiniFE", "PENNANT"} {
		app, err := apps.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []int{1, 4} {
			if _, err := faultsim.Run(faultsim.Campaign{App: app, Procs: p, Trials: 40, Errors: 3, Seed: 7, Workers: 2}); err != nil {
				t.Fatalf("%s p=%d: %v", name, p, err)
			}
			for i, v := range apps.ZeroPlane() {
				if v != 0 || math.Signbit(v) {
					t.Fatalf("after a %s campaign at p=%d the zero plane holds %v at %d", name, p, v, i)
				}
			}
		}
	}
}
