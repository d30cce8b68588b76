package fpe_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

	"resmod/internal/apps"
	_ "resmod/internal/apps/cg"
	_ "resmod/internal/apps/ft"
	_ "resmod/internal/apps/lu"
	_ "resmod/internal/apps/mg"
	_ "resmod/internal/apps/minife"
	_ "resmod/internal/apps/pennant"
	"resmod/internal/exper"
	"resmod/internal/fpe"
	"resmod/internal/race"
	"resmod/internal/simmpi"
	"resmod/internal/stats"
)

// The window oracle: every application, run with windows (fpe.Reserve and
// Tally) and with every op on the per-op path, must be the same execution
// to the bit — counts, regions, outputs, fired records, error class.

// oracleScales are the rank counts the oracle runs an app at.  Under the
// race detector a run is an order of magnitude slower, so the matrix stops
// at p = 4 there; CI runs the whole of it without -race
// (`go test -run 'Window|Fusion' ./internal/fpe`).
func oracleScales(app apps.App) []int {
	var out []int
	for _, p := range []int{1, 2, 4, 16} {
		if race.Enabled && p > 4 {
			break
		}
		if apps.CheckProcs(app, app.DefaultClass(), p) == nil {
			out = append(out, p)
		}
	}
	return out
}

// oracleTimeout bounds one run; no app hangs on a fault, so a run that
// reaches it is a bug either way.
const oracleTimeout = 20 * time.Second

// execute runs app at p ranks with windows on or off.  The result owns
// fresh contexts, so it stays valid after the next call.
func execute(app apps.App, p int, plans map[int][]fpe.Injection, windows bool) apps.ExecResult {
	fpe.Windows(windows)
	defer fpe.Windows(true)
	return apps.Execute(app, app.DefaultClass(), p, plans, oracleTimeout)
}

// executeSteps is execute's per-op run with each rank's op counts at every
// step boundary (apps.StepPlan.Counts).
func executeSteps(app apps.App, p int) (apps.ExecResult, [][]fpe.Counts) {
	fpe.Windows(false)
	defer fpe.Windows(true)
	sp := &apps.StepPlan{Counts: make([][]fpe.Counts, p), Bytes: make([]int, p)}
	res := (*apps.Arena)(nil).ExecuteSteps(context.Background(), app, app.DefaultClass(), p, nil, oracleTimeout, sp)
	return res, sp.Counts
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// sameOrNaN is sameBits with any NaN matching any other.  Go leaves
// unspecified which payload an op on two NaNs returns, and the compiler may
// order a commutative op's operands differently in a window and in its
// per-op loop.  A -race build does so (a crowded plan on LU p = 2 ends with
// State NaNs of another payload, one on MiniFE p = 2 records an operand
// NaN of another payload), so under -race, and only for the crowded
// plans, the oracle compares values this way; a normal build compares
// every plan to the bit.
func sameOrNaN(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) && !(math.IsNaN(a[i]) && math.IsNaN(b[i])) {
			return false
		}
	}
	return true
}

// errClass is what a campaign reads off an execution's error.
func errClass(err error) string {
	var pe *simmpi.PanicError
	var re *simmpi.RankError
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, simmpi.ErrTimeout):
		return "timeout"
	case errors.As(err, &pe):
		return fmt.Sprintf("panic on rank %d", pe.Rank)
	case errors.As(err, &re):
		return fmt.Sprintf("error on rank %d: %v", re.Rank, re.Err)
	}
	return err.Error()
}

// sameRun fails the test unless the windowed run got is the per-op run
// want in everything the oracle pins; with nanOK a NaN value matches any
// NaN (sameOrNaN).
func sameRun(t *testing.T, what string, want, got apps.ExecResult, nanOK bool) {
	t.Helper()
	same := sameBits
	if nanOK {
		same = sameOrNaN
	}
	if g, w := errClass(got.Err), errClass(want.Err); g != w {
		t.Fatalf("%s: %s with windows, %s without", what, g, w)
	}
	for r := range want.Ctxs {
		wc, gc := want.Ctxs[r], got.Ctxs[r]
		if g, w := gc.KindCounts(), wc.KindCounts(); g != w {
			t.Fatalf("%s: rank %d op counts %+v with windows, %+v without", what, r, g, w)
		}
		if g, w := gc.Divs(), wc.Divs(); g != w {
			t.Fatalf("%s: rank %d divs %d with windows, %d without", what, r, g, w)
		}
		if g, w := gc.RegionCounts(), wc.RegionCounts(); !reflect.DeepEqual(g, w) {
			t.Fatalf("%s: rank %d regions %+v with windows, %+v without", what, r, g, w)
		}
		gr, wr := gc.Records(), wc.Records()
		if len(gr) != len(wr) {
			t.Fatalf("%s: rank %d fired %d with windows, %d without", what, r, len(gr), len(wr))
		}
		for i := range wr {
			if gr[i].Injection != wr[i].Injection || gr[i].Op != wr[i].Op || gr[i].Region != wr[i].Region ||
				!same([]float64{gr[i].Before, gr[i].After}, []float64{wr[i].Before, wr[i].After}) {
				t.Fatalf("%s: rank %d record %d is %+v with windows, %+v without", what, r, i, gr[i], wr[i])
			}
		}
		if want.Err != nil {
			continue // a failed run's outputs are whatever the ranks left
		}
		if !same(got.Outputs[r].State, want.Outputs[r].State) {
			t.Fatalf("%s: rank %d state differs with windows", what, r)
		}
		if !same(got.Outputs[r].Check, want.Outputs[r].Check) {
			t.Fatalf("%s: rank %d check %v with windows, %v without", what, r, got.Outputs[r].Check, want.Outputs[r].Check)
		}
	}
}

// TestWindowOracleClean: the clean run of every registered application, at
// every scale, is the same with windows as without.
func TestWindowOracleClean(t *testing.T) {
	for _, app := range apps.All() {
		for _, p := range oracleScales(app) {
			what := fmt.Sprintf("%s p=%d clean", app.Name(), p)
			off := execute(app, p, nil, false)
			if off.Err != nil {
				t.Fatalf("%s: %v", what, off.Err)
			}
			sameRun(t, what, off, execute(app, p, nil, true), false)
		}
	}
}

// TestWindowOracleInjected: for each paper app at each scale, seeded plans
// — one to three faults on one rank or on two, either class — plus faults
// on each class's first and last op fire on the same op with the same
// operands, and end the same, with windows as without.  So do faults
// placed inside a step's first and last element loops and in the middle of
// the unique ops, and the two crowded plans, but for NaN payloads under
// -race (sameOrNaN).
func TestWindowOracleInjected(t *testing.T) {
	plansPerScale := 50
	if race.Enabled {
		plansPerScale = 8
	}
	for _, name := range exper.PaperBenchmarks {
		app, err := apps.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range oracleScales(app) {
			golden, steps := executeSteps(app, p)
			if golden.Err != nil {
				t.Fatalf("%s p=%d golden: %v", name, p, golden.Err)
			}
			seeded, crowded := oraclePlans(golden, steps, p, plansPerScale)
			for i, plans := range seeded {
				what := fmt.Sprintf("%s p=%d plan %d %v", name, p, i, plans)
				sameRun(t, what, execute(app, p, plans, false), execute(app, p, plans, true), false)
			}
			for i, plans := range crowded {
				what := fmt.Sprintf("%s p=%d crowded plan %d %v", name, p, i, plans)
				sameRun(t, what, execute(app, p, plans, false), execute(app, p, plans, true), race.Enabled)
			}
		}
	}
}

// oraclePlans draws n seeded plans against golden's op counts and adds the
// edges: each class's op 0 and last op on the last rank.  It adds faults
// inside the element loops that open and close a step — 1/64 of the last
// rank's step 1 from either end of it, placed by steps (each rank's counts
// at every boundary): FT's evolution and normalization — and one in the
// middle of that rank's unique ops (FT's transpose staging).  It also
// returns two crowded plans of sixteen faults on one rank, where split
// windows can go wrong: a seeded spread, and a cluster whose offsets put
// several triggers in one plane (one row block, one element of a vector
// op) and the rest in the planes after it.
func oraclePlans(golden apps.ExecResult, steps [][]fpe.Counts, p, n int) (seeded, crowded []map[int][]fpe.Injection) {
	rng := stats.NewRNG(uint64(2018 + p))
	var out []map[int][]fpe.Injection
	for i := 0; i < n; i++ {
		plans := map[int][]fpe.Injection{}
		ranks := 1
		if p > 1 && i%4 == 3 {
			ranks = 2
		}
		for len(plans) < ranks {
			r := rng.Intn(p)
			plan, err := fpe.DrawPlanAnyRegion(rng, golden.Ctxs[r].Counts(), 1+i%3)
			if err != nil {
				panic(err)
			}
			plans[r] = plan
		}
		out = append(out, plans)
	}
	r := rng.Intn(p)
	spread, err := fpe.DrawPlanAnyRegion(rng, golden.Ctxs[r].Counts(), 16)
	if err != nil {
		panic(err)
	}
	ops := golden.Ctxs[r].Counts().Common
	base := rng.Uint64n(ops)
	var cluster []fpe.Injection
	for i, off := range []uint64{0, 1, 2, 5, 13, 40, 150, 400, 700, 900, 1300, 2000, 3000, 5000, 8000, 13000} {
		cluster = append(cluster, fpe.Injection{Class: fpe.Common, Index: (base + off) % ops, Bit: uint(3 * i)})
	}
	crowded = []map[int][]fpe.Injection{{r: spread}, {r: cluster}}

	last := p - 1
	counts := golden.Ctxs[last].Counts()
	for _, class := range []fpe.RegionClass{fpe.Common, fpe.Unique} {
		if n := counts.Of(class); n > 0 {
			for _, idx := range []uint64{0, n - 1} {
				out = append(out, map[int][]fpe.Injection{last: {{Class: class, Index: idx, Bit: 62}}})
			}
		}
	}
	inside := []fpe.Injection{{Class: fpe.Unique, Index: counts.Unique / 2, Bit: 52}}
	if b := steps[last]; len(b) > 2 {
		from, to := b[1].Common, b[2].Common
		inside = append(inside, fpe.Injection{Class: fpe.Common, Index: from + (to-from)/64, Bit: 52},
			fpe.Injection{Class: fpe.Common, Index: to - (to-from)/64, Bit: 52})
	}
	for _, inj := range inside {
		if inj.Index < counts.Of(inj.Class) {
			out = append(out, map[int][]fpe.Injection{last: {inj}})
		}
	}
	return out, crowded
}

// TestWindowCoverage reports the share of each app's injectable ops that a
// clean serial run books by the window, and holds every app at 95 %:
// the ops left on the per-op path are the ones that pay the countdown.
func TestWindowCoverage(t *testing.T) {
	for _, app := range apps.All() {
		res := execute(app, 1, nil, true)
		if res.Err != nil {
			t.Fatalf("%s: %v", app.Name(), res.Err)
		}
		c := res.Ctxs[0]
		share := float64(c.Tallied()) / float64(c.Counts().Total())
		t.Logf("%-8s p=1: %5.1f %% of %d ops windowed", app.Name(), 100*share, c.Counts().Total())
		if share < 0.95 {
			t.Errorf("%s: %.1f %% of a clean serial run's ops windowed, want >= 95 %%", app.Name(), 100*share)
		}
	}
}
