// Package exper contains the evaluation drivers that regenerate every
// table and figure of the paper: Table 1 (parallel-unique computation),
// Table 2 (propagation cosine similarity), Figures 1–2 (propagation
// histograms), Figure 3 (serial-vs-parallel resilience characterization),
// Figures 5–7 (prediction accuracy at 64 and 128 ranks) and Figure 8
// (accuracy/cost sensitivity).  plan.go declares the evaluation once, as
// the ordered slice Plan; the resmod CLI's experiments, `all`, `report`
// and usage text are views of it.  The drivers are shared by the CLI and
// the benchmark harness.
package exper

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"resmod/internal/apps"
	"resmod/internal/faultsim"
	"resmod/internal/telemetry"
)

// Config tunes an evaluation session.
type Config struct {
	// Trials per fault injection deployment (the paper uses 4000; smaller
	// values trade statistical tightness for speed).
	Trials int
	// Seed drives every campaign deterministically.
	Seed uint64
	// Timeout is the per-test hang budget.
	Timeout time.Duration
	// Workers sizes the session's one runner set (GOMAXPROCS when zero):
	// every golden run and trial of every campaign holds one of its
	// slots, and each slot is one arena, so however many campaigns
	// execute concurrently (see CampaignParallel), no more than Workers
	// trials run at once and no more than Workers arenas exist.
	Workers int
	// CampaignParallel is the number of campaigns the session may execute
	// concurrently, which bounds how many prefix tables are live.
	// Non-positive selects GOMAXPROCS; 1 restores strictly sequential
	// campaign execution.  Each campaign is deterministic in (Campaign,
	// Seed) and the runners only schedule, so results are bit-identical
	// at every setting.
	CampaignParallel int
	// Log, when non-nil, receives progress events.  It is a compatibility
	// bridge: when Ctx carries no telemetry bundle, the session builds an
	// info-level structured logger writing here.  A telemetry bundle on
	// Ctx (see internal/telemetry.With) always wins, and is the richer
	// interface — events, trace spans, and engine metrics.
	Log io.Writer
	// Ctx, when non-nil, cancels in-flight campaigns and golden runs —
	// the CLI passes its SIGINT/SIGTERM context here so experiments stop
	// promptly instead of running their remaining deployments to
	// completion.
	Ctx context.Context
	// Budget bounds each campaign's wall time (zero = none).  A campaign
	// that exhausts it is treated as interrupted and fails the
	// experiment.
	Budget time.Duration
	// Cache, when non-nil, is a durable campaign-summary cache consulted
	// before a campaign runs and updated after every clean, complete run
	// (interrupted or failed campaigns are never cached).  Entries are
	// keyed by the campaign's versioned Identity, so a summary restored
	// from the cache is bit-identical to re-running the deployment.  The
	// prediction service wires internal/store here, making identical
	// campaigns compute once ever rather than once per process.
	Cache SummaryCache
	// Distribute, when non-nil, is the distributed-execution hook: given
	// a campaign (cache-missed, slot-held) and its golden, it may execute
	// the campaign elsewhere — e.g. sharded across the dist pool's worker
	// nodes — and return (summary, true, err).  Returning handled=false
	// (no workers registered) falls back to plain local execution.  The
	// hook must preserve the engine's determinism contract: the summary
	// for a campaign identity is bit-identical however it was executed,
	// which is what lets distributed results share the durable Cache and
	// checkpoint keyspace with local runs.
	Distribute func(ctx context.Context, c faultsim.Campaign, golden *faultsim.Golden) (*faultsim.Summary, bool, error)
	// OnCampaign, when non-nil, is called once for every campaign the
	// session actually executes, with its identity key and summary.
	// Cache hits — the in-process singleflight or the durable Cache —
	// do not invoke it, which is exactly what lets the serve metrics
	// count real fault-injection work (executed campaigns and trials)
	// separately from cached answers.
	OnCampaign func(identity string, sum *faultsim.Summary)
}

// SummaryCache is a durable store of campaign summaries keyed by
// faultsim.Campaign.Identity().  Implementations must be safe for
// concurrent use and treat corrupt or mismatched entries as misses.
type SummaryCache interface {
	// GetSummary returns the cached summary for the identity, if any.
	GetSummary(identity string) (*faultsim.Summary, bool)
	// PutSummary stores a complete summary under the identity.
	// Implementations may drop entries (bounded caches, write errors);
	// the cache is an accelerator, never the source of truth.
	PutSummary(identity string, sum *faultsim.Summary)
}

func (c Config) withDefaults() Config {
	if c.Trials <= 0 {
		c.Trials = 400
	}
	if c.Timeout <= 0 {
		c.Timeout = apps.DefaultTimeout
	}
	if c.CampaignParallel <= 0 {
		c.CampaignParallel = runtime.GOMAXPROCS(0)
	}
	return c
}

// Session caches golden runs and campaign summaries so that experiments
// sharing deployments (e.g. the serial curves of Figures 5, 6 and 8) run
// them once.  Concurrent callers asking for the same golden or campaign
// share a single in-flight computation (per-key singleflight) instead of
// computing it twice.
//
// Campaign executions are additionally scheduled through two bounds:
// slots caps how many campaigns execute at once (Config.CampaignParallel)
// and runners is the set of Config.Workers trial runners their golden
// runs and trials share, so saturating the campaign slots cannot
// oversubscribe the machine.
type Session struct {
	cfg     Config
	tel     *telemetry.Telemetry
	slots   chan struct{}
	runners *faultsim.Runners
	// waiting counts campaigns blocked on a slot, for SchedulerStats.
	waiting atomic.Int64

	mu      sync.Mutex
	goldens map[string]*flight[*faultsim.Golden]
	camps   map[string]*flight[*faultsim.Summary]
}

// flight is one singleflight slot.  The computation runs in its own
// goroutine under a context detached from any single caller: it derives
// from the session's base context (so session shutdown still cancels it)
// and is cancelled only when the last interested waiter gives up.  This
// is what lets a later caller that deduped onto an in-flight computation
// survive the first caller's cancellation.
type flight[T any] struct {
	done    chan struct{} // closed after val/err are set
	val     T
	err     error
	waiters int // guarded by Session.mu
	cancel  context.CancelFunc
}

// join is the singleflight entry: it attaches to the in-flight
// computation for key, starting one (under run) if none exists.  Each
// caller waits on its own ctx; the last waiter to abandon the flight
// cancels the shared computation and clears the slot so a later caller
// can retry.
func join[T any](s *Session, ctx context.Context, m map[string]*flight[T], key string,
	run func(ctx context.Context) (T, error)) (T, error) {
	s.mu.Lock()
	f := m[key]
	if f == nil {
		f = &flight[T]{done: make(chan struct{}), waiters: 1}
		// The shared computation keeps the first caller's telemetry
		// bundle (its tracer owns the campaign spans) and request ID
		// (dispatch headers carry it to workers) but not its
		// cancellation: it must outlive any individual waiter.
		runCtx, cancel := context.WithCancel(telemetry.WithRequestID(
			telemetry.With(s.baseCtx(), telemetry.From(ctx)), telemetry.RequestID(ctx)))
		f.cancel = cancel
		m[key] = f
		go func() {
			defer cancel()
			f.val, f.err = run(runCtx)
			if f.err != nil {
				// Drop the failed slot so a later caller can retry
				// (e.g. after a transient cancellation).  Waiters
				// already attached still observe the error.
				s.mu.Lock()
				if m[key] == f {
					delete(m, key)
				}
				s.mu.Unlock()
			}
			close(f.done)
		}()
	} else {
		f.waiters++
	}
	s.mu.Unlock()

	select {
	case <-f.done:
		s.mu.Lock()
		f.waiters--
		s.mu.Unlock()
		return f.val, f.err
	case <-ctx.Done():
		s.mu.Lock()
		f.waiters--
		abandoned := f.waiters == 0
		if abandoned && m[key] == f {
			// Clear the slot immediately so callers arriving between
			// this cancellation and the computation's exit start a
			// fresh flight instead of inheriting a doomed one.
			delete(m, key)
		}
		s.mu.Unlock()
		if abandoned {
			f.cancel()
		}
		var zero T
		return zero, ctx.Err()
	}
}

// NewSession creates a session.  Its telemetry bundle comes from
// Config.Ctx when present, falling back to an info-level logger over
// Config.Log (the legacy progress-writer interface), else to the nop
// bundle.
func NewSession(cfg Config) *Session {
	cfg = cfg.withDefaults()
	tel, ok := telemetry.FromContext(cfg.Ctx)
	if !ok {
		if cfg.Log != nil {
			tel = telemetry.New(telemetry.NewLogger(cfg.Log, slog.LevelInfo), nil, nil)
		} else {
			tel = telemetry.Nop()
		}
	}
	return &Session{
		cfg:     cfg,
		tel:     tel,
		slots:   make(chan struct{}, cfg.CampaignParallel),
		runners: faultsim.NewRunners(cfg.Workers),
		goldens: make(map[string]*flight[*faultsim.Golden]),
		camps:   make(map[string]*flight[*faultsim.Summary]),
	}
}

// Config returns the session's effective configuration.
func (s *Session) Config() Config { return s.cfg }

// Context returns the session's cancellation context, guaranteed to
// carry the session's telemetry bundle.
func (s *Session) Context() context.Context {
	return telemetry.With(s.baseCtx(), s.tel)
}

// baseCtx returns the configured cancellation context without forcing
// the session's telemetry onto it (ctx-variant entry points keep the
// caller's bundle).
func (s *Session) baseCtx() context.Context {
	if s.cfg.Ctx != nil {
		return s.cfg.Ctx
	}
	return context.Background()
}

// telemetryCtx ensures ctx carries a telemetry bundle: the caller's own
// when present, the session's otherwise.
func (s *Session) telemetryCtx(ctx context.Context) context.Context {
	if _, ok := telemetry.FromContext(ctx); ok {
		return ctx
	}
	return telemetry.With(ctx, s.tel)
}

// Golden returns (computing and caching on first use) the fault-free run.
func (s *Session) Golden(app apps.App, class string, procs int) (*faultsim.Golden, error) {
	return s.GoldenCtx(s.Context(), app, class, procs)
}

// GoldenCtx is Golden under a caller-supplied context: cancellation and
// telemetry (spans, events, metrics) follow ctx.  Under the per-key
// singleflight the shared computation carries the first caller's
// telemetry but stays alive while any waiter's context is.
func (s *Session) GoldenCtx(ctx context.Context, app apps.App, class string, procs int) (*faultsim.Golden, error) {
	ctx = s.telemetryCtx(ctx)
	if class == "" {
		class = app.DefaultClass()
	}
	key := fmt.Sprintf("%s/%s/p%d", app.Name(), class, procs)
	return join(s, ctx, s.goldens, key, func(runCtx context.Context) (*faultsim.Golden, error) {
		// A golden run holds a runner like one in-flight trial, so N
		// campaigns warming up don't oversubscribe the machine.
		return s.runners.Golden(runCtx, app, class, procs, s.cfg.Timeout)
	})
}

// Campaign returns (running and caching on first use) a deployment summary.
// An interrupted campaign (session context canceled, or per-campaign
// Budget exhausted) is not cached and is reported as an error carrying the
// partial progress, so experiment drivers stop promptly.
func (s *Session) Campaign(app apps.App, class string, procs, errors int, region faultsim.RegionMode) (*faultsim.Summary, error) {
	return s.CampaignCtx(s.Context(), app, class, procs, errors, region)
}

// CampaignCtx is Campaign under a caller-supplied context: cancellation
// and telemetry follow ctx.  Under the singleflight the shared run
// carries the first caller's telemetry but stays alive while any
// waiter's context is, so cancelling one deduped caller never spuriously
// fails the others.
func (s *Session) CampaignCtx(ctx context.Context, app apps.App, class string, procs, errors int, region faultsim.RegionMode) (*faultsim.Summary, error) {
	return s.run(ctx, s.campaign(app, class, procs, errors, region))
}

// campaign is the session's deployment of app: its trial budget, seed,
// timeout, workers, budget and runner set.
func (s *Session) campaign(app apps.App, class string, procs, errors int, region faultsim.RegionMode) faultsim.Campaign {
	return faultsim.Campaign{
		App: app, Class: class, Procs: procs, Trials: s.cfg.Trials,
		Errors: errors, Region: region, Seed: s.cfg.Seed,
		Timeout: s.cfg.Timeout, Workers: s.cfg.Workers,
		Budget: s.cfg.Budget, Pool: s.runners,
	}
}

// run returns (running and caching on first use) c's summary, as
// CampaignCtx does.
func (s *Session) run(ctx context.Context, c faultsim.Campaign) (*faultsim.Summary, error) {
	ctx = s.telemetryCtx(ctx)
	c = c.Normalized()
	// The singleflight key is the campaign's durable identity, so the
	// in-process cache, checkpoints and Config.Cache all share one
	// keyspace.
	key := c.Identity()
	return join(s, ctx, s.camps, key, func(runCtx context.Context) (*faultsim.Summary, error) {
		return s.runCampaign(runCtx, key, c)
	})
}

// runCampaign executes one deployment for Campaign's singleflight slot:
// durable-cache probe first, then — holding one of the session's
// campaign-parallel slots — the real fault-injection run.  Cache hits
// bypass the slot entirely; only real executions occupy it.
func (s *Session) runCampaign(ctx context.Context, key string, c faultsim.Campaign) (*faultsim.Summary, error) {
	tel := telemetry.From(ctx)
	if s.cfg.Cache != nil {
		if sum, ok := s.cfg.Cache.GetSummary(key); ok {
			tel.Logger().Info("campaign cache hit",
				"campaign", key, "rates", sum.Rates.String())
			return sum, nil
		}
	}
	s.waiting.Add(1)
	select {
	case s.slots <- struct{}{}:
		s.waiting.Add(-1)
	case <-ctx.Done():
		s.waiting.Add(-1)
		return nil, ctx.Err()
	}
	defer func() { <-s.slots }()
	golden, err := s.GoldenCtx(ctx, c.App, c.Class, c.Procs)
	if err != nil {
		return nil, err
	}
	var sum *faultsim.Summary
	if s.cfg.Distribute != nil {
		dsum, handled, derr := s.cfg.Distribute(ctx, c, golden)
		if handled {
			if derr != nil {
				return nil, fmt.Errorf("exper: campaign %s: %w", key, derr)
			}
			sum = dsum
		}
	}
	if sum == nil {
		sum, err = faultsim.RunAgainstCtx(ctx, c, golden)
		if err != nil {
			return nil, fmt.Errorf("exper: campaign %s: %w", key, err)
		}
		if sum.Interrupted {
			return sum, fmt.Errorf("exper: campaign %s interrupted after %d/%d trials",
				key, sum.TrialsDone, s.cfg.Trials)
		}
	}
	if s.cfg.OnCampaign != nil {
		s.cfg.OnCampaign(key, sum)
	}
	if s.cfg.Cache != nil {
		s.cfg.Cache.PutSummary(key, sum)
	}
	return sum, nil
}

// PaperBenchmarks are the six applications the paper evaluates, in its
// presentation order.  Experiments default to them; an application added
// with RegisterApp participates only when named explicitly.
var PaperBenchmarks = []string{"CG", "FT", "MG", "LU", "MiniFE", "PENNANT"}

// resolveApps maps names to registered apps (the paper's six when empty).
func resolveApps(names []string) ([]apps.App, error) {
	if len(names) == 0 {
		names = PaperBenchmarks
	}
	out := make([]apps.App, len(names))
	for i, n := range names {
		a, err := apps.Lookup(n)
		if err != nil {
			return nil, err
		}
		out[i] = a
	}
	return out, nil
}

// fmtPct renders a probability as the paper's percentage style.
func fmtPct(v float64) string { return fmt.Sprintf("%.1f%%", 100*v) }
