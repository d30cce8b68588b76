package telemetry

import (
	"bytes"
	"context"
	"log/slog"
	"strings"
	"testing"
	"time"
)

func TestContextRoundTrip(t *testing.T) {
	tel := New(nil, NewTracer(), NewRecorder())
	ctx := With(context.Background(), tel)
	if got := From(ctx); got != tel {
		t.Fatalf("From returned %p, want %p", got, tel)
	}
	if got, ok := FromContext(ctx); !ok || got != tel {
		t.Fatalf("FromContext = (%p, %v), want (%p, true)", got, ok, tel)
	}
}

func TestFromEmptyContextIsNop(t *testing.T) {
	tel := From(context.Background())
	if tel == nil {
		t.Fatal("From returned nil")
	}
	if _, ok := FromContext(context.Background()); ok {
		t.Fatal("FromContext reported presence on an empty context")
	}
	// The nop bundle must be safe to exercise end to end.
	tel.Logger().Info("discarded")
	_, span := tel.Tracer().Start(context.Background(), "x")
	span.SetAttr(String("k", "v"))
	span.End()
	tel.Recorder().TrialDone("success", time.Millisecond)
	tel.Recorder().CampaignDone(time.Second)
}

func TestNilTelemetryAccessors(t *testing.T) {
	var tel *Telemetry
	if tel.Logger() == nil {
		t.Fatal("nil Telemetry Logger() returned nil")
	}
	if tel.Tracer() != nil || tel.Recorder() != nil {
		t.Fatal("nil Telemetry Tracer() and Recorder() should be nil (nil-safe off switches)")
	}
}

func TestWithTracerSharesLoggerAndSink(t *testing.T) {
	rec := NewRecorder()
	base := New(nil, nil, rec)
	tr := NewTracer()
	forked := base.WithTracer(tr)
	if forked.Tracer() != tr {
		t.Fatal("WithTracer did not install the tracer")
	}
	if forked.Recorder() != rec {
		t.Fatal("WithTracer forked the recorder")
	}
	if forked.Logger() != base.Logger() {
		t.Fatal("WithTracer forked the logger")
	}
}

func TestWithLoggerSharesTracerAndSink(t *testing.T) {
	rec := NewRecorder()
	tr := NewTracer()
	base := New(nil, tr, rec)
	log := NewLogger(&bytes.Buffer{}, slog.LevelInfo)
	forked := base.WithLogger(log)
	if forked.Logger() != log {
		t.Fatal("WithLogger did not install the logger")
	}
	if forked.Tracer() != tr || forked.Recorder() != rec {
		t.Fatal("WithLogger forked the tracer or recorder")
	}
	if nop := base.WithLogger(nil).Logger(); nop == nil {
		t.Fatal("WithLogger(nil) returned a nil logger")
	}
}

func TestRequestIDRoundTrip(t *testing.T) {
	ctx := context.Background()
	if got := RequestID(ctx); got != "" {
		t.Fatalf("empty context request id = %q", got)
	}
	with := WithRequestID(ctx, "req-42")
	if got := RequestID(with); got != "req-42" {
		t.Fatalf("request id = %q, want req-42", got)
	}
	// An empty id never shadows an inherited one.
	if got := RequestID(WithRequestID(with, "")); got != "req-42" {
		t.Fatalf("empty WithRequestID overwrote the id: %q", got)
	}
}

func TestLevelMapping(t *testing.T) {
	cases := []struct {
		quiet, verbose bool
		want           slog.Level
	}{
		{false, false, slog.LevelInfo},
		{true, false, slog.LevelWarn},
		{false, true, slog.LevelDebug},
		{true, true, slog.LevelDebug}, // -v wins
	}
	for _, c := range cases {
		if got := Level(c.quiet, c.verbose); got != c.want {
			t.Errorf("Level(quiet=%v, verbose=%v) = %v, want %v",
				c.quiet, c.verbose, got, c.want)
		}
	}
}

func TestLoggerGatingAndFormat(t *testing.T) {
	var buf bytes.Buffer
	log := NewLogger(&buf, slog.LevelWarn)
	log.Info("hidden")
	log.Warn("shown", "key", "value", "n", 7)
	out := buf.String()
	if strings.Contains(out, "hidden") {
		t.Fatalf("info event leaked through a warn-level logger:\n%s", out)
	}
	if !strings.Contains(out, "WARN  shown key=value n=7") {
		t.Fatalf("unexpected line format:\n%s", out)
	}
	if n := strings.Count(out, "\n"); n != 1 {
		t.Fatalf("want exactly one line, got %d:\n%s", n, out)
	}
}

func TestLoggerQuotesAndGroups(t *testing.T) {
	var buf bytes.Buffer
	log := NewLogger(&buf, slog.LevelInfo)
	log.With("app", "CG").WithGroup("job").Info("msg", "id", "two words")
	out := buf.String()
	if !strings.Contains(out, `app=CG`) {
		t.Fatalf("WithAttrs prefix missing:\n%s", out)
	}
	if !strings.Contains(out, `job.id="two words"`) {
		t.Fatalf("group-dotted quoted attr missing:\n%s", out)
	}
}
