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
// (simmpi.Engine), the per-rank instrumented fpe contexts, and the output
// slice are built once and reset per run, so steady-state trial execution
// allocates only the application's own working set — nothing per message.
//
// An Arena is held by one execution at a time (in a campaign, one slot of
// a faultsim.Runners set, held by one trial or golden run) and must not
// be used concurrently.  The ExecResult's Ctxs and Outputs slices are
// arena-owned: they are valid until the next ExecuteCtx call on the same
// arena and must not be retained across it.  Reuse never changes results:
// a pooled execution is bit-identical to a fresh one (the fpe reset and
// engine reuse contracts), which is what keeps campaign determinism
// intact.  A nil *Arena is valid and falls back to fresh allocations.
type Arena struct {
	procs   int
	timeout time.Duration
	engine  *simmpi.Engine
	ctxs    []*fpe.Ctx
	outputs []RankOutput
	steps   []Steps
}

// NewArena returns an empty arena; the pooled state is built lazily from
// the first execution's shape and rebuilt if the shape changes.
func NewArena() *Arena { return &Arena{} }

// Discard drops the pooled state — the engine's recycled message buffers
// with it — forcing the next execution to rebuild it.  Callers use it when
// an execution ended in a state they no longer trust (e.g. after
// containing a harness panic).
func (a *Arena) Discard() {
	if a == nil {
		return
	}
	a.procs, a.engine, a.ctxs, a.outputs, a.steps = 0, nil, nil, nil, nil
}

// ExecuteCtx is the pooled equivalent of the package-level ExecuteCtx.
func (a *Arena) ExecuteCtx(ctx context.Context, app App, class string, procs int, plans map[int][]fpe.Injection, timeout time.Duration) ExecResult {
	return a.ExecuteSteps(ctx, app, class, procs, plans, timeout, nil)
}

// ExecuteSteps is ExecuteCtx with a StepPlan for a Stepped app's
// boundaries (nil = none; an app that is not Stepped has only boundary 0,
// where every execution starts).  The caller reads what the ranks recorded
// into sp only after a clean return.
func (a *Arena) ExecuteSteps(ctx context.Context, app App, class string, procs int, plans map[int][]fpe.Injection, timeout time.Duration, sp *StepPlan) ExecResult {
	var engine *simmpi.Engine
	var ctxs []*fpe.Ctx
	var outputs []RankOutput
	var steps []Steps
	if a != nil && a.procs == procs && a.timeout == timeout && a.engine != nil {
		engine, ctxs, outputs, steps = a.engine, a.ctxs, a.outputs, a.steps
		for r := 0; r < procs; r++ {
			ctxs[r].ResetPlan(plans[r])
			outputs[r] = RankOutput{}
		}
	} else {
		eng, err := simmpi.NewEngine(simmpi.Config{Procs: procs, Timeout: timeout})
		if err != nil {
			return ExecResult{Err: err}
		}
		engine = eng
		ctxs = make([]*fpe.Ctx, procs)
		outputs = make([]RankOutput, procs)
		steps = make([]Steps, procs)
		for r := 0; r < procs; r++ {
			ctxs[r] = fpe.NewWithPlan(plans[r])
		}
		if a != nil {
			a.procs, a.timeout = procs, timeout
			a.engine, a.ctxs, a.outputs, a.steps = engine, ctxs, outputs, steps
		}
	}
	stepped, _ := app.(Stepped)
	st, err := engine.RunCtx(ctx, func(c *simmpi.Comm) error {
		r := c.Rank()
		var out RankOutput
		var rerr error
		if stepped != nil && sp != nil {
			steps[r] = Steps{fc: ctxs[r], rank: r, plan: sp}
			out, rerr = stepped.RunSteps(ctxs[r], c, class, &steps[r])
		} else {
			out, rerr = app.Run(ctxs[r], c, class)
		}
		if rerr != nil {
			return rerr
		}
		outputs[r] = out
		return nil
	})
	return ExecResult{Outputs: outputs, Ctxs: ctxs, Comm: st, Err: err}
}

// DefaultTimeout is the hang-detection budget used by the harness for one
// execution when the caller does not specify one.
const DefaultTimeout = 30 * time.Second
