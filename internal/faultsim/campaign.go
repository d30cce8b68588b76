package faultsim

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"slices"
	"sync"
	"time"

	"resmod/internal/apps"
	"resmod/internal/fpe"
	"resmod/internal/simmpi"
	"resmod/internal/stats"
	"resmod/internal/telemetry"
)

// Outcome is a fault injection test's result (paper §2).
type Outcome int

// The three test outcomes.
const (
	// Success: the output is identical to the fault-free run or passes the
	// application checker.
	Success Outcome = iota
	// SDC: silent data corruption — the output differs and fails the
	// checker.
	SDC
	// Failure: the application crashed or hung.
	Failure
)

// String returns the outcome name.
func (o Outcome) String() string {
	switch o {
	case Success:
		return "success"
	case SDC:
		return "sdc"
	case Failure:
		return "failure"
	default:
		return fmt.Sprintf("Outcome(%d)", int(o))
	}
}

// RegionMode selects which computation an injection may strike.
type RegionMode int

// The region modes.
const (
	// AnyRegion draws uniformly over the whole injectable stream (common
	// and parallel-unique weighted by their dynamic operation counts) —
	// the paper's parallel fault injection deployments.
	AnyRegion RegionMode = iota
	// CommonOnly restricts injections to the common computation — the
	// paper's serial multi-error deployments.
	CommonOnly
	// UniqueOnly restricts injections to the parallel-unique computation —
	// used to measure FI_par_unique.
	UniqueOnly
)

// Resilience tuning defaults.
const (
	// DefaultAbnormalRetries is the number of times an abnormal trial is
	// retried before it counts against the campaign's MaxAbnormal budget.
	DefaultAbnormalRetries = 2
	// DefaultCheckpointEvery is the period between checkpoint snapshots
	// when Campaign.Checkpoint is set and no period is given.
	DefaultCheckpointEvery = 5 * time.Second
)

// Retry backoff bounds for abnormal trials (exponential, base doubling,
// capped).
const (
	retryBackoffBase = 10 * time.Millisecond
	retryBackoffMax  = 500 * time.Millisecond
)

// Campaign is one fault injection deployment: a specific configuration
// (scale, error count, region, fault pattern) run for Trials randomized
// tests (paper §2).
type Campaign struct {
	App   apps.App
	Class string // empty = app default
	Procs int
	// Trials is the number of fault injection tests (the paper uses 4000).
	Trials int
	// Errors is the number of simultaneous errors per test (>=1); the
	// paper's serial deployments sweep this from 1 to p.
	Errors int
	// Region selects the computation injections may strike.
	Region RegionMode
	// Seed makes the whole campaign deterministic.
	Seed uint64
	// Timeout is the per-test hang budget (default apps.DefaultTimeout).
	Timeout time.Duration
	// Workers is the trial-level concurrency (default GOMAXPROCS).
	Workers int
	// Pool, when non-nil, is a worker-token budget shared with other
	// concurrently executing campaigns: each in-flight trial holds one
	// token, so N concurrent campaigns with Workers each never run more
	// than Pool.Size() trials at once.  Nil (the default) leaves trial
	// concurrency bounded by Workers alone.  Like Workers, the pool does
	// not affect trial outcomes and never enters the campaign identity.
	Pool *WorkerBudget

	// SpreadErrors distributes the Errors of a parallel test across that
	// many *distinct* ranks (one error each) instead of injecting them all
	// into one rank's stream — modelling spatially correlated fault events
	// (e.g. one particle strike affecting several boards).  An extension
	// beyond the paper, which always injects into a single rank.
	SpreadErrors bool

	// ContaminationTol is the relative per-element deviation above which a
	// rank's final state counts as contaminated (paper §3.2).  The paper's
	// testbed runs real MPI, where reduction-order noise makes only
	// above-noise divergence observable as contamination; resmod models
	// that significance threshold explicitly.  Zero selects
	// DefaultContaminationTol; a negative value selects bit-exact
	// comparison (every ULP of divergence counts).
	ContaminationTol float64

	// Pattern selects the fault shape (default single-bit flip, the
	// paper's configuration).
	Pattern fpe.Pattern
	// KindMask restricts injections to specific operation kinds
	// (bitmask of 1<<fpe.OpAdd etc.; zero = any injectable kind).
	KindMask uint8
	// FixedBit pins the flipped bit for bit-position sensitivity sweeps
	// (single-bit pattern only).
	FixedBit *uint
	// Window restricts the injected dynamic-index range to a fraction
	// [lo, hi) of the operation stream, for injection-time sweeps.
	Window *[2]float64

	// Budget bounds the campaign's total wall time; zero means no budget.
	// A campaign that exhausts its budget stops promptly and returns a
	// partial Summary flagged Interrupted, exactly like an external
	// cancellation.
	Budget time.Duration
	// MaxAbnormal is the number of abnormal trials the campaign tolerates
	// before failing.  A trial is abnormal when the *harness* errors
	// (a panic escaping the injection machinery, an injection-plan drawing
	// error, an application-reported setup error) — as opposed to the
	// application crashing or hanging, which are Failure outcomes.
	// Abnormal trials are retried (see AbnormalRetries) and, if still
	// failing, excluded from the outcome tallies and counted in
	// Summary.Abnormal.  The default 0 fails the campaign on the first
	// unrecovered abnormal trial.
	MaxAbnormal int
	// AbnormalRetries is the number of times an abnormal trial is re-run
	// (with bounded exponential backoff) before being abandoned.  Each
	// retry replays the identical trial: the trial's RNG stream depends
	// only on (Seed, trial index).  Zero selects DefaultAbnormalRetries;
	// negative disables retries.
	AbnormalRetries int

	// Checkpoint is the path of a JSON snapshot of the campaign's partial
	// tallies, written every CheckpointEvery and at exit (including
	// interrupted exits).  Empty disables checkpointing.
	Checkpoint string
	// CheckpointEvery is the snapshot period (default
	// DefaultCheckpointEvery).
	CheckpointEvery time.Duration
	// Resume, when true and Checkpoint names an existing snapshot of this
	// exact campaign (same Identity), restores its tallies and runs only
	// the remaining trials.  Because each trial's RNG is an independent
	// stream split from Seed, a resumed campaign is bit-identical to an
	// uninterrupted one.  A missing checkpoint file starts fresh.
	Resume bool

	// ProgressEvery is the live-progress snapshot period in recorded
	// trials: when the campaign's context carries a telemetry.Progress
	// bus, a snapshot (tallies, trials/sec, ETA, Wilson CI widths) is
	// published every that many trials.  Zero selects roughly
	// DefaultProgressDivisor snapshots over the campaign's lifetime.
	// Snapshots are observations only — they never affect outcomes or
	// RNG streams — so, like Workers, the field never enters the
	// campaign identity.
	ProgressEvery int

	// hooks holds test seams; nil in production use.  A pointer keeps
	// Campaign comparable.
	hooks *campaignHooks
}

// campaignHooks are in-package test seams.
type campaignHooks struct {
	// trialDone is called under the aggregate lock after every recorded
	// trial with the completed-trial count — used by tests to interrupt a
	// campaign at an exact trial boundary.
	trialDone func(done uint64)
	// fromZero runs every trial from op 0, without a prefix table.
	fromZero bool
}

// drawOpts assembles the fpe drawing options from the campaign fields.
func (c Campaign) drawOpts() fpe.DrawOpts {
	return fpe.DrawOpts{
		Pattern:  c.Pattern,
		KindMask: c.KindMask,
		FixedBit: c.FixedBit,
		Window:   c.Window,
	}
}

// TrialRecord describes one completed test, for tracing.
type TrialRecord struct {
	Outcome      Outcome
	Contaminated int
	TargetRank   int
	Fired        int
	// Distances holds the ring distances of the contaminated ranks from
	// the target (empty for Failure outcomes).
	Distances []int
}

// Summary is a deployment's fault injection result (paper §2): outcome
// rates plus the contamination profile and conditional rates the model
// consumes.
type Summary struct {
	// Rates is the overall fault injection result.
	Rates stats.Rates
	// Counts holds the raw outcome tallies behind Rates.
	Counts stats.Counter
	// Hist profiles how many ranks each completed test contaminated
	// (Failure tests, having no final state, are not profiled).
	Hist *stats.Hist
	// ByContamination holds outcome counters conditioned on the number of
	// contaminated ranks — FI_small_par_x in the paper's notation.
	ByContamination map[int]*stats.Counter
	// SpreadByDistance[d] counts contaminated ranks at ring distance d
	// from the injected rank, over all completed tests (distance
	// min(|r-t|, p-|r-t|)).  It separates neighbour-wise spreaders (LU's
	// pipeline) from global spreaders (CG's reductions).
	SpreadByDistance []uint64
	// Golden is the reference execution the campaign ran against.
	Golden *Golden
	// Elapsed is the campaign's total wall time (the paper's "fault
	// injection time").
	Elapsed time.Duration
	// AvgFired is the mean number of planned injections that actually
	// executed per completed test (late plan indices can be skipped when
	// corrupted control flow shortens the operation stream).
	AvgFired float64

	// Interrupted reports that the campaign stopped early — an external
	// cancellation (e.g. SIGINT) or an exhausted Budget — so the tallies
	// cover only TrialsDone of the configured Trials.
	Interrupted bool
	// TrialsDone is the number of trials whose outcomes are in the
	// tallies.  For a complete campaign with no abnormal trials it equals
	// the configured Trials.
	TrialsDone uint64
	// Abnormal is the number of trials abandoned after harness errors
	// (panics escaping the injection machinery, plan-drawing errors);
	// they contribute to no outcome tally, so Rates.N < Trials.  A
	// non-zero Abnormal means degraded statistical confidence and should
	// be surfaced by reports.
	Abnormal uint64
}

// ConditionalRates returns the fault injection result over tests that
// contaminated exactly x ranks, and whether any such tests exist.
func (s *Summary) ConditionalRates(x int) (stats.Rates, bool) {
	c, ok := s.ByContamination[x]
	if !ok || c.Total() == 0 {
		return stats.Rates{}, false
	}
	return c.Rates(), true
}

// Run executes the deployment.  The result is deterministic for a given
// Campaign value (including Seed), regardless of Workers.
func Run(c Campaign) (*Summary, error) {
	return RunCtx(context.Background(), c)
}

// RunCtx is Run under a context: cancellation stops all trial workers
// promptly (within one trial timeout) and returns the partial Summary
// flagged Interrupted instead of discarding the completed work.
func RunCtx(ctx context.Context, c Campaign) (*Summary, error) {
	ctx = orBackground(ctx)
	// Only what the golden run itself needs is checked here; every other
	// default is Campaign.prepared's, applied by RunAgainstCtx.
	if c.App == nil {
		return nil, errors.New("faultsim: Campaign.App is nil")
	}
	if c.Procs < 1 {
		return nil, fmt.Errorf("faultsim: invalid Procs %d", c.Procs)
	}
	if c.Trials < 1 {
		return nil, fmt.Errorf("faultsim: invalid Trials %d", c.Trials)
	}
	if c.Timeout <= 0 {
		c.Timeout = apps.DefaultTimeout
	}
	// A golden run occupies the machine like one in-flight trial, so under
	// a shared budget it holds a token like one.
	if err := c.Pool.Acquire(ctx); err != nil {
		return nil, err
	}
	golden, err := ComputeGoldenCtx(ctx, c.App, c.Class, c.Procs, c.Timeout)
	c.Pool.Release()
	if err != nil {
		return nil, err
	}
	return RunAgainstCtx(ctx, c, golden)
}

// RunAgainst executes the deployment against a precomputed golden run
// (letting callers share one golden across deployments).
func RunAgainst(c Campaign, golden *Golden) (*Summary, error) {
	return RunAgainstCtx(context.Background(), c, golden)
}

// orBackground is the package's nil-context guard: the exported entry
// points pass their context through it once, so nothing below them checks.
func orBackground(ctx context.Context) context.Context {
	if ctx == nil {
		return context.Background()
	}
	return ctx
}

// prepared returns the campaign ready to execute against golden: App and
// Class filled from the golden run, the identity-defining defaults of
// Normalized, and the execution defaults (Workers, Timeout,
// AbnormalRetries) that never enter the identity.  RunAgainstCtx and
// RunShardCtx both start here, which is what makes a shard's embedded
// identity equal the coordinator's.
func (c Campaign) prepared(golden *Golden) (Campaign, error) {
	if c.App == nil {
		c.App = golden.App
	}
	if c.Class == "" {
		c.Class = golden.Class
	}
	c = c.Normalized()
	if golden.Procs != c.Procs {
		return c, fmt.Errorf("faultsim: golden has %d procs, campaign wants %d",
			golden.Procs, c.Procs)
	}
	if c.Trials < 1 {
		return c, fmt.Errorf("faultsim: invalid Trials %d", c.Trials)
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Timeout <= 0 {
		c.Timeout = apps.DefaultTimeout
	}
	if c.AbnormalRetries == 0 {
		c.AbnormalRetries = DefaultAbnormalRetries
	}
	return c, nil
}

// RunAgainstCtx is RunAgainst under a context.  On cancellation or an
// exhausted Budget it returns the partial Summary flagged Interrupted (and,
// when Checkpoint is set, persists a resumable snapshot first).  Campaign
// errors — invalid configuration, or more than MaxAbnormal abnormal trials
// — are returned as errors; the abnormal-overflow error cites the lowest
// failing trial index observed, independent of worker scheduling.
//
// A local campaign is the shard [0, Trials): this wrapper only adds what a
// whole campaign has and a shard does not — resume, periodic checkpoints,
// live progress on the telemetry bus and the Interrupted contract — around
// the same runRange RunShardCtx calls.
func RunAgainstCtx(ctx context.Context, c Campaign, golden *Golden) (*Summary, error) {
	ctx = orBackground(ctx)
	c, err := c.prepared(golden)
	if err != nil {
		return nil, err
	}

	start := time.Now()
	agg := newAggregate(c.Procs, c.Trials)
	if c.hooks != nil {
		agg.hook = c.hooks.trialDone
	}
	identity := c.Identity()

	// Telemetry: one campaign span covering the whole deployment, trial
	// outcomes/latency into the recorder, structured completion events.
	tel := telemetry.From(ctx)
	ctx, span := tel.Tracer().Start(ctx, "campaign",
		telemetry.String("id", identity),
		telemetry.Int("procs", c.Procs),
		telemetry.Int("trials", c.Trials),
		telemetry.Int("workers", c.Workers))
	defer span.End()

	if c.Resume && c.Checkpoint != "" {
		// A resume is a merge onto the saved snapshot: the same validated
		// fold a shard result goes through.  A missing file is not an error
		// — the campaign starts fresh, so -resume is safe to pass always.
		ck, err := LoadCheckpoint(c.Checkpoint)
		if err == nil {
			err = agg.mergeDisjoint(ck, identity)
		}
		if err != nil && !errors.Is(err, os.ErrNotExist) {
			return nil, err
		}
		tel.Logger().Debug("campaign resumed from checkpoint",
			"campaign", identity, "path", c.Checkpoint, "done", agg.doneCount())
	}

	// Live progress: an opening snapshot (a resumed campaign announces its
	// restored trial count), periodic ones from the trial loop's observer
	// and a terminal one on every summary-producing exit.  With no bus on
	// the context the observer stays nil and publish does nothing.
	// Publishing is observation-only, so results are bit-identical whether
	// or not anyone is listening.
	publish := func(string, ShardStatus) {}
	var observe ShardObserver
	if bus := tel.Progress(); bus != nil {
		// Rate and ETA cover only trials executed this run, so a
		// 90%-restored campaign doesn't report a fantasy rate.
		restored := agg.doneCount()
		publish = func(state string, st ShardStatus) {
			bus.Publish(BuildProgressEvent(identity, state, c.Trials, st, time.Since(start), st.Done-restored))
		}
		observe = func(st ShardStatus) { publish(telemetry.StateRunning, st) }
	}
	publish(telemetry.StateRunning, agg.status(0, c.Trials))

	// writeCheckpoint snapshots the tallies, tracing and counting each
	// write (the final write's error is the caller's to handle).
	writeCheckpoint := func() error {
		_, sp := tel.Tracer().Start(ctx, "checkpoint",
			telemetry.String("path", c.Checkpoint))
		err := SaveCheckpoint(c.Checkpoint, agg.snapshot(identity))
		sp.End()
		if err == nil {
			tel.Recorder().CheckpointWrite()
		} else {
			tel.Logger().Warn("checkpoint write failed",
				"campaign", identity, "path", c.Checkpoint, "err", err)
		}
		return err
	}

	// Periodic checkpointing: a snapshot every CheckpointEvery, plus a
	// final one on every exit path so an interrupted campaign is always
	// resumable.
	ckptStop := make(chan struct{})
	var ckptWG sync.WaitGroup
	if c.Checkpoint != "" {
		every := c.CheckpointEvery
		if every <= 0 {
			every = DefaultCheckpointEvery
		}
		ckptWG.Add(1)
		go func() {
			defer ckptWG.Done()
			tick := time.NewTicker(every)
			defer tick.Stop()
			for {
				select {
				case <-ckptStop:
					return
				case <-tick.C:
					// Best effort: a failed periodic write only costs
					// resumability back to the previous snapshot.
					_ = writeCheckpoint()
				}
			}
		}()
	}

	stopped := runRange(ctx, c, golden, agg, 0, c.Trials, observe)

	if c.Checkpoint != "" {
		close(ckptStop)
		ckptWG.Wait()
		if err := writeCheckpoint(); err != nil {
			return nil, fmt.Errorf("faultsim: writing checkpoint: %w", err)
		}
	}
	if err := agg.fatalError(c.MaxAbnormal); err != nil {
		publish(telemetry.StateFailed, agg.status(0, c.Trials))
		return nil, err
	}

	sum := agg.summary(golden)
	sum.Elapsed = time.Since(start)
	sum.Interrupted = stopped != nil && sum.TrialsDone+sum.Abnormal < uint64(c.Trials)
	state := telemetry.StateDone
	if sum.Interrupted {
		state = telemetry.StateInterrupted
	}
	publish(state, agg.status(0, c.Trials))
	tel.Recorder().CampaignDone(sum.Elapsed)
	span.SetAttr(telemetry.Attr{Key: "trials_done", Value: sum.TrialsDone},
		telemetry.Attr{Key: "interrupted", Value: sum.Interrupted})
	logCampaign(tel, identity, sum)
	return sum, nil
}

// runRange is the package's one trial executor.  It runs the not-yet-done
// trials of [start, end) on c.Workers goroutines striding over *global*
// trial indices — trial t's RNG stream is split from c.Seed by t alone, so
// how [0, Trials) is cut into ranges, and which worker runs which trial,
// cannot change a tally — and records them into agg, which spans the
// whole campaign's bitmap width.  c must be prepared.  observe (nil = off)
// sees the [start, end) tallies at the campaign's progress cadence.
//
// Everything that makes a trial loop resilient lives here once: the
// Budget deadline, the abort that stops the other workers when the
// abnormal budget blows, one arena per worker, a shared-Pool token per
// in-flight trial, retried-then-abandoned abnormal trials, and a
// trial-batch span per worker.  The return value is the cause that ended
// the run's context early — cancellation, Budget expiry or that abort —
// or nil when every worker ran off the end of its stride; what an early
// stop means (a partial Summary, or a shard that must not merge) is the
// caller's contract.
func runRange(ctx context.Context, c Campaign, golden *Golden, agg *aggregate, start, end int, observe ShardObserver) error {
	if c.Budget > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.Budget)
		defer cancel()
	}
	ctx, abort := context.WithCancel(ctx)
	defer abort()

	// The telemetry bundle is resolved once here — not per trial — so the
	// hot path pays only the recording calls themselves (no-ops when
	// telemetry is off).
	tel := telemetry.From(ctx)
	sink := tel.Recorder()
	base := stats.NewRNG(c.Seed)
	every := progressEvery(c)
	var tab *prefixTable
	if c.hooks == nil || !c.hooks.fromZero {
		tab = newPrefixTable(golden)
	}
	var wg sync.WaitGroup
	for w := 0; w < c.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			_, bspan := tel.Tracer().Start(ctx, "trial-batch", telemetry.Int("worker", w))
			ran := 0
			defer func() {
				bspan.SetAttr(telemetry.Int("trials", ran))
				bspan.End()
			}()
			// One arena per worker: trials reuse the simulated world's
			// inboxes, its recycled message buffers and the per-rank fpe
			// contexts instead of rebuilding them, cutting steady-state
			// per-trial allocation to the application's working set.
			// Pooled state never affects trial results.
			arena := apps.NewArena()
			for t := start + w; t < end; t += c.Workers {
				if ctx.Err() != nil {
					return
				}
				if agg.isDone(t) {
					continue // merged in from a checkpoint
				}
				// Under a shared budget, hold one token per in-flight
				// trial.  Tokens are released before any other blocking
				// wait, so concurrent campaigns drain each other's
				// backlog instead of deadlocking.
				if err := c.Pool.Acquire(ctx); err != nil {
					return
				}
				t0 := time.Now()
				rec, err := runTrialResilient(ctx, c, golden, tab, base, t, sink, agg, arena)
				c.Pool.Release()
				if err != nil {
					if isInterruption(err) {
						return
					}
					sink.TrialAbnormal()
					if agg.recordAbnormal(t, err) > c.MaxAbnormal {
						// Stop burning trials: a campaign fails from
						// fatalError, a shard reports its list and lets
						// the coordinator apply the campaign-wide budget.
						abort()
						return
					}
					continue
				}
				done := agg.record(t, rec)
				sink.TrialDone(rec.Outcome.String(), time.Since(t0))
				ran++
				if observe != nil && done%every == 0 {
					observe(agg.status(start, end))
				}
			}
		}(w)
	}
	wg.Wait()
	return context.Cause(ctx)
}

// logCampaign emits the structured completion event for one executed
// deployment: info for clean completions, warn for interruptions and
// campaigns with abnormal trials (so -quiet never hides them).
func logCampaign(tel *telemetry.Telemetry, identity string, sum *Summary) {
	args := []any{
		"campaign", identity, "rates", sum.Rates.String(),
		"trials", sum.TrialsDone,
		"elapsed", sum.Elapsed.Round(time.Millisecond),
	}
	switch {
	case sum.Interrupted:
		tel.Logger().Warn("campaign interrupted", args...)
	case sum.Abnormal > 0:
		tel.Logger().Warn("campaign done with abnormal trials",
			append(args, "abnormal", sum.Abnormal)...)
	default:
		tel.Logger().Info("campaign done", args...)
	}
}

// isInterruption reports whether a trial error is an external interruption
// (context cancellation or budget/deadline expiry) rather than a harness
// abnormality; interrupted trials are not outcomes and not abnormal.
func isInterruption(err error) bool {
	return errors.Is(err, simmpi.ErrCanceled) ||
		errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded)
}

// runTrialResilient runs one trial with harness-fault containment: panics
// escaping the harness are recovered, and abnormal trials are retried with
// bounded exponential backoff (each retry counted into the recorder and the
// aggregate's live-snapshot tally).  Retries replay the identical trial —
// the RNG stream is re-split from the base per attempt, and the worker's
// arena is discarded first so the replay runs on provably fresh state.
func runTrialResilient(ctx context.Context, c Campaign, golden *Golden, tab *prefixTable, base *stats.RNG, t int, sink *telemetry.Recorder, agg *aggregate, arena *apps.Arena) (TrialRecord, error) {
	backoff := retryBackoffBase
	var rec TrialRecord
	var err error
	for attempt := 0; ; attempt++ {
		rec, err = runTrialContained(ctx, c, golden, tab, base.Split(uint64(t)), arena, nil)
		if err == nil || isInterruption(err) {
			return rec, err
		}
		arena.Discard()
		if attempt >= c.AbnormalRetries {
			return rec, fmt.Errorf("faultsim: trial %d failed abnormally after %d attempt(s): %w",
				t, attempt+1, err)
		}
		sink.TrialRetried()
		agg.noteRetried()
		select {
		case <-ctx.Done():
			return rec, fmt.Errorf("%w: %w", simmpi.ErrCanceled, ctx.Err())
		case <-time.After(backoff):
		}
		backoff *= 2
		if backoff > retryBackoffMax {
			backoff = retryBackoffMax
		}
	}
}

// runTrialContained is runTrial with a recover fence: a panic escaping the
// harness (injection drawing, outcome classification, a panicking
// application Verify) is contained to this trial and reported as an
// abnormal error instead of killing the whole campaign.
func runTrialContained(ctx context.Context, c Campaign, golden *Golden, tab *prefixTable, rng *stats.RNG, arena *apps.Arena, detail *TrialDetail) (rec TrialRecord, err error) {
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("faultsim: harness panic: %v", v)
		}
	}()
	return runTrial(ctx, c, golden, tab, rng, arena, detail)
}

// aggregate is the shared, lock-protected campaign state: the done-trial
// bitmap plus the Tally the Summary is built from.  Keeping one shared
// aggregate (rather than per-worker partials merged at the end) is what
// makes periodic checkpointing a plain snapshot; the per-trial lock is
// negligible next to a trial's full application execution.
type aggregate struct {
	mu        sync.Mutex
	trials    int
	done      []uint64 // bitmap; bit t set = trial t's outcome is tallied
	completed uint64
	tally     Tally
	fired     uint64
	retried   uint64 // abnormal-trial retries, for live snapshots
	abnormal  []trialError
	hook      func(done uint64)
}

// trialError is one abnormal trial's error, kept for deterministic
// (lowest-trial-index) campaign error reporting.
type trialError struct {
	trial int
	err   error
}

func newAggregate(procs, trials int) *aggregate {
	return &aggregate{
		trials: trials,
		done:   make([]uint64, (trials+63)/64),
		tally:  newTally(procs),
	}
}

// doneCount returns the number of tallied trials so far.
func (a *aggregate) doneCount() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.completed
}

// isDone reports whether trial t's outcome is already tallied (restored
// from a checkpoint).
func (a *aggregate) isDone(t int) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.done[t/64]&(1<<(t%64)) != 0
}

// record tallies one completed trial and returns the completed-trial
// count after it — the progress publisher's cadence input.
func (a *aggregate) record(t int, rec TrialRecord) uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.done[t/64]&(1<<(t%64)) != 0 {
		return a.completed
	}
	a.done[t/64] |= 1 << (t % 64)
	a.completed++
	a.fired += uint64(rec.Fired)
	a.tally.add(rec)
	if a.hook != nil {
		a.hook(a.completed)
	}
	return a.completed
}

// recordAbnormal records an abandoned trial and returns the new abnormal
// count.  Abnormal trials are never marked done: a resumed campaign
// re-attempts them.
func (a *aggregate) recordAbnormal(t int, err error) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.abnormal = append(a.abnormal, trialError{trial: t, err: err})
	return len(a.abnormal)
}

// abnormalTrials snapshots the abnormal-trial list in ascending trial
// index order — the one deterministic view both error reporting and the
// shard wire format read, independent of which worker recorded first.
func (a *aggregate) abnormalTrials() []trialError {
	a.mu.Lock()
	out := slices.Clone(a.abnormal)
	a.mu.Unlock()
	slices.SortStableFunc(out, func(x, y trialError) int { return cmp.Compare(x.trial, y.trial) })
	return out
}

// fatalError returns the campaign error when the abnormal budget is
// exceeded, citing the lowest-trial-index abnormal error observed.
func (a *aggregate) fatalError(maxAbnormal int) error {
	abn := a.abnormalTrials()
	if len(abn) <= maxAbnormal {
		return nil
	}
	if maxAbnormal == 0 && len(abn) == 1 {
		return abn[0].err
	}
	return fmt.Errorf("faultsim: %d abnormal trial(s) exceed budget %d; first: %w",
		len(abn), maxAbnormal, abn[0].err)
}

// status snapshots the tallies as a ShardStatus over [start, end) — the
// one tally shape progress events, shard observers and Merger.Tallies
// share.
func (a *aggregate) status(start, end int) ShardStatus {
	a.mu.Lock()
	defer a.mu.Unlock()
	return ShardStatus{
		Start: start, End: end,
		Done:     a.completed,
		Success:  a.tally.Success,
		SDC:      a.tally.SDC,
		Failure:  a.tally.Failure,
		Abnormal: uint64(len(a.abnormal)),
		Retried:  a.retried,
	}
}

// summary builds the Summary from the tallies.
func (a *aggregate) summary(golden *Golden) *Summary {
	a.mu.Lock()
	defer a.mu.Unlock()
	sum := a.tally.summary()
	sum.Golden = golden
	sum.Abnormal = uint64(len(a.abnormal))
	if a.completed > 0 {
		sum.AvgFired = float64(a.fired) / float64(a.completed)
	}
	return sum
}

// ringDistance returns min(|a-b|, p-|a-b|): the hop count between two
// ranks on a ring of p, the topology metric for 1-D decomposed apps.
func ringDistance(a, b, p int) int {
	d := a - b
	if d < 0 {
		d = -d
	}
	if p-d < d {
		d = p - d
	}
	return d
}

// clampCont maps a contamination count into [1, p] the way the histogram
// does, so ByContamination keys line up with Hist bins.
func clampCont(x, p int) int {
	if x < 1 {
		return 1
	}
	if x > p {
		return p
	}
	return x
}

// drawFor draws a k-error plan for one rank under the campaign's region
// mode and options.
func drawFor(c Campaign, golden *Golden, rng *stats.RNG, rank, k int) ([]fpe.Injection, error) {
	opts := c.drawOpts()
	kc := golden.KindCounts[rank]
	switch c.Region {
	case AnyRegion:
		// All k errors draw over the full injectable stream (common and
		// parallel-unique weighted by their dynamic op counts), matching
		// the documented AnyRegion semantics; restricting the k>1 case to
		// the common stream would make multi-error parallel deployments
		// blind to the parallel-unique computation.
		return fpe.DrawAnyRegionKWith(rng, kc, k, opts)
	case CommonOnly:
		return fpe.DrawWith(rng, kc, fpe.Common, k, opts)
	case UniqueOnly:
		return fpe.DrawWith(rng, kc, fpe.Unique, k, opts)
	default:
		return nil, fmt.Errorf("faultsim: unknown region mode %d", int(c.Region))
	}
}

// TrialDetail is what a trace shows of one trial beyond its TrialRecord.
type TrialDetail struct {
	// Plan is the injection plan drawn for the target rank.
	Plan []fpe.Injection
	// Exec is the injected execution: the target rank's Ctx holds the
	// records of the injections that fired, rank 0's output the Check.
	Exec apps.ExecResult
	// ContaminatedRanks are the ranks the campaign's contamination check
	// counts, in rank order (len == TrialRecord.Contaminated).
	ContaminatedRanks []int
}

// TraceTrial executes trial t of the campaign through the same contained
// runTrial a campaign's workers call, on the RNG stream the campaign gives
// trial t, and returns its record with the detail a trace prints.  Tallying
// the records of trials 0..Trials-1 therefore reproduces the campaign's
// Summary; an error is what the campaign would retry and then count
// abnormal.  It runs from op 0, with no prefix table: the reference a
// campaign's resumed trials are checked against.
func TraceTrial(ctx context.Context, c Campaign, golden *Golden, t int) (TrialRecord, *TrialDetail, error) {
	c, err := c.prepared(golden)
	if err != nil {
		return TrialRecord{}, nil, err
	}
	detail := new(TrialDetail)
	rec, err := runTrialContained(orBackground(ctx), c, golden, nil, stats.NewRNG(c.Seed).Split(uint64(t)), nil, detail)
	return rec, detail, err
}

// runTrial executes one fault injection test.  arena (nil-safe) pools
// the execution state across a worker's trials.  detail, nil on the
// campaign path, receives what TraceTrial reports — the execution result
// included, so it is only for a trial run without an arena.
func runTrial(ctx context.Context, c Campaign, golden *Golden, tab *prefixTable, rng *stats.RNG, arena *apps.Arena, detail *TrialDetail) (TrialRecord, error) {
	target := 0
	if c.Procs > 1 {
		target = rng.Intn(c.Procs)
	}
	plans := make(map[int][]fpe.Injection)
	if c.SpreadErrors && c.Procs > 1 && c.Errors > 1 {
		k := c.Errors
		if k > c.Procs {
			return TrialRecord{}, fmt.Errorf(
				"faultsim: SpreadErrors wants %d distinct ranks of %d", k, c.Procs)
		}
		ranks := rng.Perm(c.Procs)[:k]
		target = ranks[0]
		for _, r := range ranks {
			plan, err := drawFor(c, golden, rng, r, 1)
			if err != nil {
				return TrialRecord{}, err
			}
			plans[r] = plan
		}
	} else {
		plan, err := drawFor(c, golden, rng, target, c.Errors)
		if err != nil {
			return TrialRecord{}, err
		}
		plans[target] = plan
	}

	sp := tab.plan(plans)
	res := arena.ExecuteSteps(ctx, golden.App, golden.Class, c.Procs, plans, c.Timeout, sp)
	if sp != nil && res.Err == nil {
		tab.publish(sp)
	}
	fired := 0
	for r := range plans {
		fired += res.Ctxs[r].Fired()
	}
	rec := TrialRecord{TargetRank: target, Fired: fired}
	if detail != nil {
		detail.Plan, detail.Exec = plans[target], res
	}
	if res.Err != nil {
		var pe *simmpi.PanicError
		if errors.As(res.Err, &pe) || errors.Is(res.Err, simmpi.ErrTimeout) {
			rec.Outcome = Failure
			return rec, nil
		}
		// Cancellation and harness problems are not application outcomes.
		return rec, res.Err
	}
	// Hash-first contamination check: a rank whose state hash matches the
	// golden hash is bit-identical (so never diverged, whatever the
	// tolerance); only mismatching ranks — the contaminated few — pay the
	// element-wise comparison.
	hashes := golden.StateHashes()
	for r := 0; r < c.Procs; r++ {
		st := res.Outputs[r].State
		if hashState(st) == hashes[r] {
			continue
		}
		if diverged(st, golden.States[r], c.ContaminationTol) {
			rec.Contaminated++
			rec.Distances = append(rec.Distances, ringDistance(r, target, c.Procs))
			if detail != nil {
				detail.ContaminatedRanks = append(detail.ContaminatedRanks, r)
			}
		}
	}
	if golden.App.Verify(golden.Check, res.Outputs[0].Check) {
		rec.Outcome = Success
	} else {
		rec.Outcome = SDC
	}
	return rec, nil
}
