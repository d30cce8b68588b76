package apps_test

import (
	"context"
	"errors"
	"math"
	"slices"
	"testing"
	"time"

	"resmod/internal/apps"
	_ "resmod/internal/apps/cg"
	_ "resmod/internal/apps/ft"
	_ "resmod/internal/apps/lu"
	_ "resmod/internal/apps/mg"
	_ "resmod/internal/apps/minife"
	_ "resmod/internal/apps/pennant"
	"resmod/internal/fpe"
	"resmod/internal/race"
	"resmod/internal/simmpi"
	"resmod/internal/stats"
)

// TestResume is the resume oracle of the six paper apps (apps.Stepped), at
// p = 1, 4 and min(16, MaxProcs) of their default classes:
//
//   - a clean run resumed from every boundary but the last equals the full
//     run on every rank, bit for bit: State, Check, KindCounts and Divs
//     (RegionCounts cover only the resumed steps, by design);
//   - 50 seeded injection plans per scale — single-error, 8-error and
//     spread over ranks — run from the last boundary before their first
//     injection equal the same plans run from op 0: every rank's State and
//     Check bits and every fired Record, so a trial's outcome, contaminated
//     ranks, distances and Fired count, or else the same kind of failure.
func TestResume(t *testing.T) {
	for _, name := range []string{"CG", "FT", "MG", "LU", "MiniFE", "PENNANT"} {
		app, err := apps.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := app.(apps.Stepped); !ok {
			t.Fatalf("%s does not implement apps.Stepped", name)
		}
		resumeOracle(t, app)
	}
}

func resumeOracle(t *testing.T, app apps.App) {
	plans := 50
	if race.Enabled {
		plans = 6
	}
	for _, p := range []int{1, 4, min(16, app.MaxProcs(app.DefaultClass()))} {
		golden := &apps.StepPlan{Counts: make([][]fpe.Counts, p), Bytes: make([]int, p)}
		full := run(t, app, p, nil, golden)
		last := len(golden.Counts[0]) - 1
		if last < 2 {
			t.Fatalf("%s p=%d: %d boundaries; want at least 2", app.Name(), p, last)
		}
		rec := &apps.StepPlan{}
		for b := 1; b < last; b++ {
			rec.Record = append(rec.Record, apps.NewBoundary(b, p))
		}
		run(t, app, p, nil, rec)
		for _, b := range rec.Record {
			got := run(t, app, p, nil, &apps.StepPlan{From: b})
			for r := 0; r < p; r++ {
				kc, divs := full.Ctxs[r].Boundary()
				gkc, gdivs := got.Ctxs[r].Boundary()
				if !sameBits(full.Outputs[r].State, got.Outputs[r].State) ||
					!sameBits(full.Outputs[r].Check, got.Outputs[r].Check) || kc != gkc || divs != gdivs {
					t.Fatalf("%s p=%d: the run resumed from boundary %d differs on rank %d", app.Name(), p, b.Step, r)
				}
			}
		}

		rng := stats.NewRNG(uint64(1000 + p))
		for i := 0; i < plans; i++ {
			plan := drawPlan(t, rng, full, p, i%3)
			from := apps.LastClean(golden.Counts, plan, last-1)
			if from == 0 {
				continue
			}
			want := run(t, app, p, plan, nil)
			got := run(t, app, p, plan, &apps.StepPlan{From: rec.Record[from-1]})
			if msg := sameTrial(want, got, plan); msg != "" {
				t.Fatalf("%s p=%d plan %d %v resumed from boundary %d: %s", app.Name(), p, i, plan, from, msg)
			}
		}
	}
}

// TestReconvergeCheck holds StepPlan.Check to its rules on the six paper
// apps at p = 4.  A clean run stops at every check boundary but the last:
// its carries are the golden's.  A run whose only fault step 1 masks stops
// at boundary 2; with a second injection still pending there it must not,
// and then equals the same plan run from op 0.
func TestReconvergeCheck(t *testing.T) {
	const p = 4
	for _, name := range []string{"CG", "FT", "MG", "LU", "MiniFE", "PENNANT"} {
		app, err := apps.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		golden := &apps.StepPlan{Counts: make([][]fpe.Counts, p), Bytes: make([]int, p), Hashes: make([][]uint64, p)}
		run(t, app, p, nil, golden)
		last := len(golden.Counts[0]) - 1
		check := func(plans map[int][]fpe.Injection, b int) apps.ExecResult {
			return run(t, app, p, plans, &apps.StepPlan{Hashes: golden.Hashes, Check: b})
		}
		for b := 1; b < last; b++ {
			if !check(nil, b).Stopped {
				t.Errorf("%s: a clean run did not stop at boundary %d", name, b)
			}
		}
		rng := stats.NewRNG(7)
		lo, hi := golden.Counts[0][1].Common, golden.Counts[0][2].Common
		var masked []fpe.Injection
		for i := 0; i < 200 && masked == nil; i++ {
			inj := []fpe.Injection{{Class: fpe.Common, Index: lo + rng.Uint64n(hi-lo), Bit: uint(rng.Intn(64))}}
			if check(map[int][]fpe.Injection{0: inj}, 2).Stopped {
				masked = inj
			}
		}
		if masked == nil {
			t.Fatalf("%s: no fault of 200 in step 1 was masked by boundary 2", name)
		}
		pending := fpe.Injection{Class: fpe.Common, Index: golden.Counts[0][last-1].Common, Bit: 52}
		plans := map[int][]fpe.Injection{0: append(masked, pending)}
		want, got := run(t, app, p, plans, nil), check(plans, 2)
		if got.Stopped {
			t.Errorf("%s: %v stopped at boundary 2 with an injection pending", name, plans[0])
		} else if msg := sameTrial(want, got, plans); msg != "" {
			t.Errorf("%s: %v checked at boundary 2 differs from op 0: %s", name, plans[0], msg)
		}
	}
}

// run executes app on fresh state, failing the test on a harness error.
func run(t *testing.T, app apps.App, p int, plans map[int][]fpe.Injection, sp *apps.StepPlan) apps.ExecResult {
	t.Helper()
	res := apps.NewArena().ExecuteSteps(context.Background(), app, app.DefaultClass(), p, plans, 10*time.Second, sp)
	var pe *simmpi.PanicError
	if res.Err != nil && (plans == nil || !errors.As(res.Err, &pe) && !errors.Is(res.Err, simmpi.ErrTimeout)) {
		t.Fatalf("%s p=%d: %v", app.Name(), p, res.Err)
	}
	return res
}

// drawPlan draws a single-error (kind 0), 8-error (kind 1) or spread
// (kind 2: one error on each of up to 8 ranks) plan over the clean run's
// op counts.
func drawPlan(t *testing.T, rng *stats.RNG, clean apps.ExecResult, p, kind int) map[int][]fpe.Injection {
	t.Helper()
	plans := map[int][]fpe.Injection{}
	ranks, k := []int{rng.Intn(p)}, 1
	switch {
	case kind == 1:
		k = 8
	case kind == 2 && p > 1:
		ranks = ranks[:0]
		for _, r := range rng.SampleDistinct(min(8, p), uint64(p)) {
			ranks = append(ranks, int(r))
		}
	}
	for _, r := range ranks {
		plan, err := fpe.DrawPlanAnyRegion(rng, clean.Ctxs[r].Counts(), k)
		if err != nil {
			t.Fatal(err)
		}
		plans[r] = plan
	}
	return plans
}

// sameTrial returns what differs between two executions of one plan, or "".
func sameTrial(want, got apps.ExecResult, plans map[int][]fpe.Injection) string {
	if outcome(want.Err) != outcome(got.Err) {
		return "outcome " + outcome(want.Err) + " from op 0, " + outcome(got.Err) + " resumed"
	}
	if want.Err != nil {
		return ""
	}
	for r := range plans {
		a, b := want.Ctxs[r].Records(), got.Ctxs[r].Records()
		if len(a) != len(b) {
			return "fired count"
		}
		for i := range a {
			x, y := a[i], b[i]
			if x.Injection != y.Injection || x.Op != y.Op || x.Region != y.Region ||
				math.Float64bits(x.Before) != math.Float64bits(y.Before) || math.Float64bits(x.After) != math.Float64bits(y.After) {
				return "fired records"
			}
		}
	}
	for r := range want.Outputs {
		if !sameBits(want.Outputs[r].State, got.Outputs[r].State) || !sameBits(want.Outputs[r].Check, got.Outputs[r].Check) {
			return "output"
		}
	}
	return ""
}

// outcome names the kind of an execution's end.
func outcome(err error) string {
	switch {
	case err == nil:
		return "clean"
	case errors.Is(err, simmpi.ErrTimeout):
		return "timeout"
	default:
		return "panic"
	}
}

// sameBits reports whether a and b hold the same float64 bit patterns.
func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}
