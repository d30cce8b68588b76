package faultsim

import (
	"context"
	"math"
	"path/filepath"
	"testing"

	"resmod/internal/telemetry"
)

// TestCampaignFeedsSink runs a checkpointed campaign under a telemetry
// bundle and checks the recorder's tallies agree with the summary.
func TestCampaignFeedsSink(t *testing.T) {
	rec := telemetry.NewRecorder()
	tr := telemetry.NewTracer()
	ctx := telemetry.With(context.Background(),
		telemetry.New(nil, tr, rec))

	c := Campaign{
		App: lookup(t, "PENNANT"), Procs: 2, Trials: 20, Seed: 7, Workers: 2,
		Checkpoint: filepath.Join(t.TempDir(), "ckpt.json"),
	}
	sum, err := RunCtx(ctx, c)
	if err != nil {
		t.Fatal(err)
	}

	s := rec.Snapshot()
	if got := s.TrialsTotal(); got != sum.TrialsDone {
		t.Fatalf("recorder trials %d != summary TrialsDone %d", got, sum.TrialsDone)
	}
	// Outcome split must reproduce the summary rates: counts are exact.
	if got, want := s.TrialSuccess, uint64(math.Round(sum.Rates.Success*float64(sum.Rates.N))); got != want {
		t.Fatalf("recorder success %d != rates-derived %d", got, want)
	}
	if s.Campaigns != 1 {
		t.Fatalf("recorder campaigns = %d, want 1", s.Campaigns)
	}
	if s.GoldenRuns != 1 {
		t.Fatalf("recorder goldens = %d, want 1", s.GoldenRuns)
	}
	// The final flush of a checkpointed campaign always writes once.
	if s.CheckpointWrites == 0 {
		t.Fatal("recorder recorded no checkpoint writes for a checkpointed campaign")
	}
	if s.TrialLatency.Count != sum.TrialsDone {
		t.Fatalf("trial latency count %d != TrialsDone %d", s.TrialLatency.Count, sum.TrialsDone)
	}
	if s.CampaignDuration.Count != 1 {
		t.Fatalf("campaign duration count = %d", s.CampaignDuration.Count)
	}

	// Spans: one golden, one campaign, one checkpoint at least, and one
	// trial-batch for the campaign's one range.
	names := map[string]int{}
	for _, v := range tr.Spans() {
		names[v.Name]++
	}
	if names["golden"] != 1 || names["campaign"] != 1 {
		t.Fatalf("span counts = %v", names)
	}
	if names["checkpoint"] == 0 || names["trial-batch"] != 1 {
		t.Fatalf("span counts = %v", names)
	}
}

// TestCampaignWithoutTelemetryUnchanged guards determinism: the same
// campaign with and without a telemetry bundle yields identical results.
func TestCampaignWithoutTelemetryUnchanged(t *testing.T) {
	c := Campaign{App: lookup(t, "PENNANT"), Procs: 2, Trials: 20, Seed: 7}
	bare, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	ctx := telemetry.With(context.Background(),
		telemetry.New(nil, telemetry.NewTracer(), telemetry.NewRecorder()))
	instrumented, err := RunCtx(ctx, c)
	if err != nil {
		t.Fatal(err)
	}
	if bare.Rates != instrumented.Rates {
		t.Fatalf("telemetry changed the result: %v vs %v", bare.Rates, instrumented.Rates)
	}
	if bare.Hist.Counts[0] != instrumented.Hist.Counts[0] {
		t.Fatalf("telemetry changed the histogram")
	}
}
