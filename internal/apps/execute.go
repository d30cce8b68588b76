package apps

import (
	"context"
	"time"

	"resmod/internal/fpe"
	"resmod/internal/simmpi"
)

// ExecResult is the outcome of one full (serial or parallel) execution.
type ExecResult struct {
	// Outputs holds each rank's RankOutput, indexed by rank.  On failure
	// entries may be zero-valued.
	Outputs []RankOutput
	// Ctxs holds each rank's floating point context (op counts, fired
	// injection records), indexed by rank.
	Ctxs []*fpe.Ctx
	// Comm holds communication-volume statistics — of the steps after the
	// boundary an execution resumed from, when it resumed (no trial reads
	// them).
	Comm simmpi.Stats
	// Stopped reports that the ranks reconverged to the golden's at the
	// StepPlan's Check boundary and stopped there: Outputs are not the
	// run's.
	Stopped bool
	// Err is the execution failure, if any: a *simmpi.PanicError for an
	// application crash, simmpi.ErrTimeout for a hang, or a *simmpi.RankError
	// for an application-reported error.
	Err error
}

// Execute runs app on procs ranks.  plans maps rank -> injection plan; ranks
// without an entry run clean.  timeout bounds the execution (hang detection);
// zero disables the watchdog.
func Execute(app App, class string, procs int, plans map[int][]fpe.Injection, timeout time.Duration) ExecResult {
	return ExecuteCtx(context.Background(), app, class, procs, plans, timeout)
}

// ExecuteCtx is Execute under a context: cancellation aborts the simulated
// world promptly and surfaces as an Err wrapping simmpi.ErrCanceled —
// distinct from the application outcomes (*simmpi.PanicError, ErrTimeout).
// Every call builds fresh execution state; callers that execute many
// same-shaped runs should hold an Arena instead.
func ExecuteCtx(ctx context.Context, app App, class string, procs int, plans map[int][]fpe.Injection, timeout time.Duration) ExecResult {
	return (*Arena)(nil).ExecuteCtx(ctx, app, class, procs, plans, timeout)
}

// Arena is a reuse pool for repeated executions: the simulated world's
// per-rank inboxes with the message buffers they have recycled
// (simmpi.Engine), the per-rank instrumented fpe contexts, the output
// slice, and each rank's working set — the arrays an app draws with
// Steps.Floats — are built once and reset per run, so a steady-state trial
// allocates next to nothing: an arena is an engine, its contexts and one
// working set.  The working set is kept across executions of one (app,
// class, procs) shape and dropped when the shape changes.
//
// An Arena is held by one execution at a time (in a campaign, one slot of
// a faultsim.Runners set, held by one trial or golden run) and must not
// be used concurrently.  What an execution returns is arena-owned — the
// ExecResult's Ctxs and Outputs slices, and the State (and any Check) an
// app drew from its working set: it is valid until the next ExecuteCtx
// call on the same arena, and a caller that keeps it longer copies it
// (faultsim's golden run does).  Reuse never changes results: a pooled
// execution is bit-identical to a fresh one (the fpe reset and engine
// reuse contracts, and Floats' zeroed arrays), which is what keeps
// campaign determinism intact.  A nil *Arena is valid and falls back to
// fresh allocations.
type Arena struct {
	procs      int
	timeout    time.Duration
	app, class string // the shape the working sets were drawn for
	engine     *simmpi.Engine
	ctxs       []*fpe.Ctx
	outputs    []RankOutput
	steps      []Steps
	sets       []workingSet
}

// NewArena returns an empty arena; the pooled state is built lazily from
// the first execution's shape and rebuilt if the shape changes.
func NewArena() *Arena { return &Arena{} }

// Discard drops the pooled state — the engine's recycled message buffers
// and the working sets with it — forcing the next execution to rebuild it.
// Callers use it when an execution ended in a state they no longer trust
// (e.g. after containing a harness panic).
func (a *Arena) Discard() {
	if a != nil {
		*a = Arena{}
	}
}

// ExecuteCtx is the pooled equivalent of the package-level ExecuteCtx.
func (a *Arena) ExecuteCtx(ctx context.Context, app App, class string, procs int, plans map[int][]fpe.Injection, timeout time.Duration) ExecResult {
	return a.ExecuteSteps(ctx, app, class, procs, plans, timeout, nil)
}

// poisonSets makes an execution on a reused arena fill the working sets
// the last one left with NaN before the ranks draw from them; only the
// tests set it (export_test.go).
var poisonSets bool

// ExecuteSteps is ExecuteCtx with a StepPlan for the app's boundaries
// (nil = none; an app that marks none has only boundary 0, where every
// execution starts).  The caller reads what the ranks recorded
// into sp only after a clean return, a stop included.
func (a *Arena) ExecuteSteps(ctx context.Context, app App, class string, procs int, plans map[int][]fpe.Injection, timeout time.Duration, sp *StepPlan) ExecResult {
	if a == nil {
		a = new(Arena) // fresh state, dropped after the run
	}
	if a.procs != procs || a.timeout != timeout || a.engine == nil {
		eng, err := simmpi.NewEngine(simmpi.Config{Procs: procs, Timeout: timeout})
		if err != nil {
			a.Discard()
			return ExecResult{Err: err}
		}
		*a = Arena{procs: procs, timeout: timeout, engine: eng,
			ctxs: make([]*fpe.Ctx, procs), outputs: make([]RankOutput, procs), steps: make([]Steps, procs)}
		for r := range a.ctxs {
			a.ctxs[r] = fpe.NewWithPlan(plans[r])
		}
	} else {
		for r := 0; r < procs; r++ {
			a.ctxs[r].ResetPlan(plans[r])
			a.outputs[r] = RankOutput{}
		}
	}
	if name := app.Name(); a.sets == nil || a.app != name || a.class != class {
		a.app, a.class, a.sets = name, class, make([]workingSet, procs)
	} else if poisonSets {
		for r := range a.sets {
			a.sets[r].poison()
		}
	}
	st, err := a.engine.RunCtx(ctx, func(c *simmpi.Comm) error {
		r := c.Rank()
		a.sets[r].rewind()
		a.steps[r] = Steps{fc: a.ctxs[r], comm: c, rank: r, plan: sp, set: &a.sets[r]}
		out, rerr := app.Run(a.ctxs[r], c, class, &a.steps[r])
		if rerr != nil {
			return rerr
		}
		a.outputs[r] = out
		return nil
	})
	return ExecResult{Outputs: a.outputs, Ctxs: a.ctxs, Comm: st, Stopped: st.Stopped, Err: err}
}

// DefaultTimeout is the hang-detection budget used by the harness for one
// execution when the caller does not specify one.
const DefaultTimeout = 30 * time.Second
