// Package faultsim implements the paper's fault-injection methodology
// (§2): fault injection deployments made of many randomized fault
// injection tests against a golden (fault-free) execution, with the
// three-outcome classification (Success / SDC / Failure), contamination
// profiling across ranks (§3.2), and deterministic, seedable campaign
// execution over a worker pool.
package faultsim

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"resmod/internal/apps"
	"resmod/internal/fpe"
	"resmod/internal/simmpi"
	"resmod/internal/telemetry"
)

// Golden is the fault-free reference execution of one (app, class, procs)
// configuration.  Campaigns compare injected runs against it.
type Golden struct {
	App   apps.App
	Class string
	Procs int

	// Counts holds each rank's injectable-operation counts; injection
	// plans are drawn uniformly over these streams.
	Counts []fpe.Counts
	// States holds each rank's fault-free final state for bit-exact
	// contamination detection.
	States [][]float64
	// Check holds the fault-free verification values (rank 0).
	Check []float64
	// Regions aggregates named-region operation counts over all ranks.
	Regions map[string]fpe.Counts
	// Comm reports the execution's communication volume.
	Comm simmpi.Stats
	// StepCounts holds each rank's op counts at each step boundary of an
	// apps.Stepped app: StepCounts[r][i] after i steps.  Empty for other
	// apps.  Trials read it to choose the boundary they resume from.
	StepCounts [][]fpe.Counts

	// carryBytes is the size of every rank's carry at a boundary, together.
	carryBytes int
	// stepHashes holds each rank's carry hash at each boundary, indexed as
	// StepCounts: what a trial's boundary check compares against.
	stepHashes [][]uint64

	// hashOnce guards the lazy per-rank state hashes used by the
	// trial-comparison fast path; unexported so a Golden built by hand
	// (tests, JSON) still works.
	hashOnce    sync.Once
	stateHashes []uint64
}

// StateHashes returns the per-rank hashes of States, computed once per
// Golden.  Trials compare a rank's state hash first and fall back to the
// element-wise scan only on mismatch, so the common uncontaminated-rank
// case pays one cheap integer pass instead of a float comparison walk.
func (g *Golden) StateHashes() []uint64 {
	g.hashOnce.Do(func() {
		g.stateHashes = make([]uint64, len(g.States))
		for r, s := range g.States {
			g.stateHashes[r] = hashState(s)
		}
	})
	return g.stateHashes
}

// hashState hashes a state vector's exact bit pattern.  Hash equality is
// taken as bit-identity in the contamination fast path (see
// apps.HashFloats), and the hash is a pure function of the data, so
// results stay deterministic across runs and worker schedules.
func hashState(s []float64) uint64 { return apps.HashFloats(apps.FNVOffset, s) }

// TotalCounts returns the injectable-operation counts summed over ranks.
func (g *Golden) TotalCounts() fpe.Counts {
	var t fpe.Counts
	for _, c := range g.Counts {
		t.Common += c.Common
		t.Unique += c.Unique
	}
	return t
}

// UniqueFraction returns the parallel-unique fraction of the execution —
// the prob2 weight of the paper's Eq. 1 (prob1 = 1 - prob2).
func (g *Golden) UniqueFraction() float64 { return g.TotalCounts().UniqueFraction() }

// ComputeGolden runs the fault-free execution and captures the reference
// data.  It fails if the execution errors — a golden run must be clean.
func ComputeGolden(app apps.App, class string, procs int, timeout time.Duration) (*Golden, error) {
	return ComputeGoldenCtx(context.Background(), app, class, procs, timeout)
}

// ComputeGoldenCtx is ComputeGolden under a context; cancellation aborts
// the reference run promptly.
func ComputeGoldenCtx(ctx context.Context, app apps.App, class string, procs int, timeout time.Duration) (*Golden, error) {
	return computeGolden(ctx, nil, app, class, procs, timeout)
}

// computeGolden runs the fault-free execution on arena (nil: fresh state).
func computeGolden(ctx context.Context, arena *apps.Arena, app apps.App, class string, procs int, timeout time.Duration) (*Golden, error) {
	if class == "" {
		class = app.DefaultClass()
	}
	tel := telemetry.From(ctx)
	ctx, span := tel.Tracer().Start(ctx, "golden",
		telemetry.String("app", app.Name()),
		telemetry.String("class", class),
		telemetry.Int("procs", procs))
	defer span.End()
	start := time.Now()
	sp := &apps.StepPlan{Counts: make([][]fpe.Counts, procs), Bytes: make([]int, procs), Hashes: make([][]uint64, procs)}
	res := arena.ExecuteSteps(ctx, app, class, procs, nil, timeout, sp)
	if res.Err != nil {
		return nil, fmt.Errorf("faultsim: golden run of %s/%s p=%d failed: %w",
			app.Name(), class, procs, res.Err)
	}
	elapsed := time.Since(start)
	g := &Golden{
		App: app, Class: class, Procs: procs,
		Counts:  make([]fpe.Counts, procs),
		States:  make([][]float64, procs),
		Regions: make(map[string]fpe.Counts),
		Comm:    res.Comm,
	}
	if len(sp.Counts[0]) > 0 {
		g.StepCounts, g.stepHashes = sp.Counts, sp.Hashes
		for _, b := range sp.Bytes {
			g.carryBytes += b
		}
	}
	g.Check = append(g.Check, res.Outputs[0].Check...)
	for r := 0; r < procs; r++ {
		g.Counts[r] = res.Ctxs[r].Counts()
		// The arena's next execution reuses the arrays the State is in.
		g.States[r] = slices.Clone(res.Outputs[r].State)
		for name, c := range res.Ctxs[r].RegionCounts() {
			t := g.Regions[name]
			t.Common += c.Common
			t.Unique += c.Unique
			g.Regions[name] = t
		}
	}
	if !apps.AllFinite(g.Check) {
		return nil, fmt.Errorf("faultsim: golden check of %s/%s p=%d not finite: %v",
			app.Name(), class, procs, g.Check)
	}
	tel.Recorder().GoldenRun(elapsed)
	tel.Logger().Debug("golden run complete",
		"app", app.Name(), "class", class, "procs", procs,
		"elapsed", elapsed, "unique_frac", g.UniqueFraction())
	return g, nil
}

// bitEqual reports whether two vectors are identical bit-for-bit.
func bitEqual(a, b []float64) bool {
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

// DefaultContaminationTol is the relative state deviation above which a
// rank counts as contaminated.  It sits at the verification checkers'
// sensitivity scale: divergence below it is indistinguishable from the
// run-to-run reduction noise of the paper's real-MPI testbed and is
// invisible to the application's checkers, so it does not constitute the
// contamination the model reasons about.
const DefaultContaminationTol = 1e-10

// diverged reports whether state b deviates from golden state a beyond the
// tolerance: relatively for O(1)-and-larger elements, absolutely near
// zero.  A negative tolerance selects bit-exact comparison.  Length
// mismatches and non-finite values always count as divergence.
func diverged(got, golden []float64, tol float64) bool {
	if tol < 0 {
		return !bitEqual(got, golden)
	}
	if len(got) != len(golden) {
		return true
	}
	for i := range got {
		g, w := got[i], golden[i]
		if math.IsNaN(g) || math.IsInf(g, 0) {
			return true
		}
		d := math.Abs(g - w)
		scale := math.Abs(w)
		if scale < 1 {
			scale = 1
		}
		if d > tol*scale {
			return true
		}
	}
	return false
}
