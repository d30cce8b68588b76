package fpe_test

import (
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
// want in everything the oracle pins.
func sameRun(t *testing.T, what string, want, got apps.ExecResult) {
	t.Helper()
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
				!sameBits([]float64{gr[i].Before, gr[i].After}, []float64{wr[i].Before, wr[i].After}) {
				t.Fatalf("%s: rank %d record %d is %+v with windows, %+v without", what, r, i, gr[i], wr[i])
			}
		}
		if want.Err != nil {
			continue // a failed run's outputs are whatever the ranks left
		}
		if !sameBits(got.Outputs[r].State, want.Outputs[r].State) {
			t.Fatalf("%s: rank %d state differs with windows", what, r)
		}
		if !sameBits(got.Outputs[r].Check, want.Outputs[r].Check) {
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
			sameRun(t, what, off, execute(app, p, nil, true))
		}
	}
}

// TestWindowOracleInjected: for each paper app at each scale, seeded plans
// — one to three faults on one rank or on two, either class — plus faults on each class's first and last op fire on the
// same op with the same operands, and end the same, with windows as
// without.
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
			golden := execute(app, p, nil, false)
			if golden.Err != nil {
				t.Fatalf("%s p=%d golden: %v", name, p, golden.Err)
			}
			for i, plans := range oraclePlans(golden, p, plansPerScale) {
				what := fmt.Sprintf("%s p=%d plan %d %v", name, p, i, plans)
				sameRun(t, what, execute(app, p, plans, false), execute(app, p, plans, true))
			}
		}
	}
}

// oraclePlans draws n seeded plans against golden's op counts, then adds
// the edges: each class's op 0 and last op on the last rank.
func oraclePlans(golden apps.ExecResult, p, n int) []map[int][]fpe.Injection {
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
	last := p - 1
	counts := golden.Ctxs[last].Counts()
	for _, class := range []fpe.RegionClass{fpe.Common, fpe.Unique} {
		if n := counts.Of(class); n > 0 {
			for _, idx := range []uint64{0, n - 1} {
				out = append(out, map[int][]fpe.Injection{last: {{Class: class, Index: idx, Bit: 62}}})
			}
		}
	}
	return out
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
