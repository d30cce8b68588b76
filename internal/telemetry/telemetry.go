// Package telemetry is resmod's zero-dependency observability spine:
// structured events on log/slog, lightweight trace spans exportable as
// Chrome trace-event JSON, and an engine-metrics Recorder — bundled into one
// value that travels down the call stack on context.Context, so the CLI,
// the prediction service and library callers share a single
// instrumentation surface through exper → faultsim → the simulated
// applications.
//
// The package is allocation-conscious: a nil *Tracer and a nil *Recorder
// short-circuit every recording call, so an instrumented hot path (the
// campaign trial loop) costs nothing when telemetry is off.
package telemetry

import (
	"context"
	"log/slog"
)

// Telemetry bundles the three observability channels.  Build one with New;
// the accessors never return a value whose methods are unsafe to call, so
// instrumentation sites need no nil checks.
type Telemetry struct {
	logger   *slog.Logger
	tracer   *Tracer   // nil = tracing off (*Tracer methods are nil-safe)
	recorder *Recorder // nil = engine metrics off (*Recorder methods are nil-safe)
	progress *Progress // nil = live progress off (*Progress methods are nil-safe)
}

// New assembles a bundle.  Any argument may be nil: a nil logger discards
// events, a nil tracer records no spans, a nil recorder drops metrics.
func New(logger *slog.Logger, tracer *Tracer, recorder *Recorder) *Telemetry {
	if logger == nil {
		logger = nopLogger
	}
	return &Telemetry{logger: logger, tracer: tracer, recorder: recorder}
}

// nop is the shared inert bundle returned by Nop and From on contexts
// carrying no telemetry.
var nop = &Telemetry{logger: nopLogger}

// Nop returns the inert bundle: events discarded, spans off, metrics
// dropped.
func Nop() *Telemetry { return nop }

// Logger returns the event logger (never nil).
func (t *Telemetry) Logger() *slog.Logger {
	if t == nil {
		return nopLogger
	}
	return t.logger
}

// Tracer returns the span recorder; it may be nil, but every *Tracer
// method is nil-safe, so call sites use it unconditionally.
func (t *Telemetry) Tracer() *Tracer {
	if t == nil {
		return nil
	}
	return t.tracer
}

// Recorder returns the engine-metrics recorder; it may be nil, but every
// *Recorder method is nil-safe, so call sites use it unconditionally.
func (t *Telemetry) Recorder() *Recorder {
	if t == nil {
		return nil
	}
	return t.recorder
}

// Progress returns the live-progress bus; it may be nil, but every
// *Progress method is nil-safe, so call sites use it unconditionally.
func (t *Telemetry) Progress() *Progress {
	if t == nil {
		return nil
	}
	return t.progress
}

// WithTracer returns a copy of the bundle recording spans into tr while
// sharing the logger, recorder and progress bus — how the prediction
// service gives every job its own trace without forking the metrics.
func (t *Telemetry) WithTracer(tr *Tracer) *Telemetry {
	return &Telemetry{logger: t.Logger(), tracer: tr, recorder: t.Recorder(), progress: t.Progress()}
}

// WithLogger returns a copy of the bundle logging through l while sharing
// the tracer, recorder and progress bus — how a worker scopes request-level
// slog fields (request_id, shard range) without forking the rest of its
// telemetry.  A nil l falls back to the discarding logger.
func (t *Telemetry) WithLogger(l *slog.Logger) *Telemetry {
	if l == nil {
		l = nopLogger
	}
	return &Telemetry{logger: l, tracer: t.Tracer(), recorder: t.Recorder(), progress: t.Progress()}
}

// WithProgress returns a copy of the bundle publishing live progress
// onto p while sharing the logger, tracer and recorder — the progress twin
// of WithTracer (the service scopes a bus per job; the CLI attaches one
// per invocation).
func (t *Telemetry) WithProgress(p *Progress) *Telemetry {
	return &Telemetry{logger: t.Logger(), tracer: t.Tracer(), recorder: t.Recorder(), progress: p}
}

// ctxKey keys the bundle in a context.
type ctxKey struct{}

// With attaches the bundle to the context.  Everything downstream that
// calls From — exper sessions, faultsim campaigns, the server's job
// runner — then logs, traces and counts through it.
func With(ctx context.Context, t *Telemetry) context.Context {
	return context.WithValue(ctx, ctxKey{}, t)
}

// From returns the context's bundle, or the nop bundle when the context
// carries none (or is nil).  The result is never nil.
func From(ctx context.Context) *Telemetry {
	if t, ok := FromContext(ctx); ok {
		return t
	}
	return nop
}

// reqIDKey keys the request correlation ID in a context.
type reqIDKey struct{}

// WithRequestID attaches a request correlation ID to the context.  The
// server stamps its per-request X-Request-ID here so the ID survives the
// hop into job goroutines and outbound shard dispatches; an empty id
// returns ctx unchanged.
func WithRequestID(ctx context.Context, id string) context.Context {
	if id == "" {
		return ctx
	}
	return context.WithValue(ctx, reqIDKey{}, id)
}

// RequestID returns the context's request correlation ID, or "" when none
// was attached (or ctx is nil).
func RequestID(ctx context.Context) string {
	if ctx == nil {
		return ""
	}
	id, _ := ctx.Value(reqIDKey{}).(string)
	return id
}

// FromContext is From with an explicit presence report, for callers that
// bridge legacy configuration (e.g. exper.Config.Log) only when the
// context carries no telemetry of its own.
func FromContext(ctx context.Context) (*Telemetry, bool) {
	if ctx == nil {
		return nil, false
	}
	t, ok := ctx.Value(ctxKey{}).(*Telemetry)
	if !ok || t == nil {
		return nil, false
	}
	return t, true
}
