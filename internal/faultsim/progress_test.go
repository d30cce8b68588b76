package faultsim

import (
	"context"
	"path/filepath"
	"testing"

	"resmod/internal/apps"
	"resmod/internal/telemetry"
)

// runWithProgress executes the campaign with a Progress bus on the
// context and returns the summary, the engine-metrics snapshot, and
// every campaign-kind event published, in order.
func runWithProgress(t *testing.T, c Campaign, golden *Golden) (*Summary, telemetry.Snapshot, []telemetry.ProgressEvent) {
	t.Helper()
	prog := telemetry.NewProgress()
	sub := prog.Subscribe(4096)
	defer sub.Close()
	rec := telemetry.NewRecorder()
	ctx := telemetry.With(context.Background(), telemetry.New(nil, nil, rec).WithProgress(prog))
	sum, err := RunAgainstCtx(ctx, c, golden)
	if err != nil {
		t.Fatal(err)
	}
	var evs []telemetry.ProgressEvent
	for {
		select {
		case ev := <-sub.Events():
			if ev.Kind == telemetry.KindCampaign {
				evs = append(evs, ev)
			}
			continue
		default:
		}
		break
	}
	return sum, rec.Snapshot(), evs
}

func TestCampaignProgressSnapshots(t *testing.T) {
	app := lookup(t, "PENNANT")
	golden, err := ComputeGolden(app, "", 2, apps.DefaultTimeout)
	if err != nil {
		t.Fatal(err)
	}
	c := Campaign{App: app, Procs: 2, Trials: 40, Seed: 7, Workers: 4}
	sum, engine, evs := runWithProgress(t, c, golden)

	if len(evs) < 3 {
		t.Fatalf("got %d events, want at least opening + periodic + terminal", len(evs))
	}
	first, last := evs[0], evs[len(evs)-1]
	if first.State != telemetry.StateRunning || first.Done != 0 {
		t.Fatalf("opening snapshot = %+v, want running@0", first)
	}
	if last.State != telemetry.StateDone {
		t.Fatalf("terminal snapshot state = %q, want done", last.State)
	}
	if last.Done != uint64(c.Trials) || last.Total != uint64(c.Trials) {
		t.Fatalf("terminal snapshot %d/%d, want %d/%d", last.Done, last.Total, c.Trials, c.Trials)
	}
	// Progress accounting: the final snapshot's per-outcome tallies sum to
	// the trials the engine counted (the /metrics
	// resmod_campaign_trials_total contract) and match the Summary.
	if got := last.Success + last.SDC + last.Failure; got != engine.TrialsTotal() {
		t.Fatalf("tallies sum to %d, engine counted %d trials", got, engine.TrialsTotal())
	}
	if last.Success != sum.Counts.Success || last.SDC != sum.Counts.SDC || last.Failure != sum.Counts.Failure {
		t.Fatalf("terminal tallies %d/%d/%d differ from summary %+v",
			last.Success, last.SDC, last.Failure, sum.Counts)
	}
	// Done counts are monotone and snapshots carry convergence intervals
	// once trials are tallied.
	for i := 1; i < len(evs); i++ {
		if evs[i].Done < evs[i-1].Done {
			t.Fatalf("event %d: done went backwards (%d after %d)", i, evs[i].Done, evs[i-1].Done)
		}
	}
	if last.SuccessCI == nil || last.SDCCI == nil || last.FailureCI == nil {
		t.Fatalf("terminal snapshot missing convergence intervals: %+v", last)
	}
	if w := last.SuccessCI.Width(); w <= 0 || w > 1 {
		t.Fatalf("success CI width = %g", w)
	}
}

// TestCampaignProgressResume: a campaign resumed from a checkpoint opens
// its progress stream at the restored trial count, not zero.
func TestCampaignProgressResume(t *testing.T) {
	app := lookup(t, "PENNANT")
	golden, err := ComputeGolden(app, "", 2, apps.DefaultTimeout)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ck.json")
	base := Campaign{App: app, Procs: 2, Trials: 30, Seed: 3, Workers: 3}

	// Interrupt a checkpointing run partway.
	ctx, cancel := context.WithCancel(context.Background())
	interrupted := base
	interrupted.Checkpoint = path
	interrupted.hooks = &campaignHooks{trialDone: func(done uint64) {
		if done >= 10 {
			cancel()
		}
	}}
	partial, err := RunAgainstCtx(ctx, interrupted, golden)
	cancel()
	if err != nil {
		t.Fatal(err)
	}
	if !partial.Interrupted || partial.TrialsDone == 0 {
		t.Fatalf("bad partial: interrupted=%v done=%d", partial.Interrupted, partial.TrialsDone)
	}

	resumed := base
	resumed.Checkpoint = path
	resumed.Resume = true
	sum, _, evs := runWithProgress(t, resumed, golden)
	if len(evs) == 0 {
		t.Fatal("no progress events from the resumed run")
	}
	if evs[0].Done != partial.TrialsDone {
		t.Fatalf("resumed run opened at %d trials, checkpoint restored %d",
			evs[0].Done, partial.TrialsDone)
	}
	last := evs[len(evs)-1]
	if last.State != telemetry.StateDone || last.Done != uint64(base.Trials) {
		t.Fatalf("terminal snapshot = %+v", last)
	}
	if sum.TrialsDone != uint64(base.Trials) {
		t.Fatalf("resumed summary TrialsDone = %d", sum.TrialsDone)
	}
}

// TestCampaignProgressInterrupted: an interrupted campaign's terminal
// snapshot carries the interrupted state and the partial count.
func TestCampaignProgressInterrupted(t *testing.T) {
	app := lookup(t, "PENNANT")
	golden, err := ComputeGolden(app, "", 2, apps.DefaultTimeout)
	if err != nil {
		t.Fatal(err)
	}
	prog := telemetry.NewProgress()
	sub := prog.Subscribe(4096)
	defer sub.Close()
	ctx, cancel := context.WithCancel(
		telemetry.With(context.Background(), telemetry.Nop().WithProgress(prog)))
	c := Campaign{App: app, Procs: 2, Trials: 30, Seed: 5, Workers: 2}
	c.hooks = &campaignHooks{trialDone: func(done uint64) {
		if done >= 8 {
			cancel()
		}
	}}
	sum, err := RunAgainstCtx(ctx, c, golden)
	cancel()
	if err != nil {
		t.Fatal(err)
	}
	if !sum.Interrupted {
		t.Fatalf("campaign not interrupted (done=%d)", sum.TrialsDone)
	}
	var last telemetry.ProgressEvent
	for {
		select {
		case last = <-sub.Events():
			continue
		default:
		}
		break
	}
	if last.State != telemetry.StateInterrupted {
		t.Fatalf("terminal state = %q, want interrupted", last.State)
	}
	if last.Done != sum.TrialsDone {
		t.Fatalf("terminal snapshot done=%d, summary %d", last.Done, sum.TrialsDone)
	}
}

// TestProgressObservationOnly: publishing snapshots never changes the
// campaign result.
func TestProgressObservationOnly(t *testing.T) {
	app := lookup(t, "PENNANT")
	golden, err := ComputeGolden(app, "", 2, apps.DefaultTimeout)
	if err != nil {
		t.Fatal(err)
	}
	c := Campaign{App: app, Procs: 2, Trials: 25, Seed: 11, Workers: 3}
	want, err := RunAgainst(c, golden)
	if err != nil {
		t.Fatal(err)
	}
	got, _, _ := runWithProgress(t, c, golden)
	equalResults(t, want, got, "with-progress vs without")
}

func TestProgressEveryDefaults(t *testing.T) {
	for _, tc := range []struct {
		trials int
		want   uint64
	}{
		{trials: 4000, want: 40},
		{trials: 50, want: 1}, // below the divisor: every trial
	} {
		if got := progressEvery(Campaign{Trials: tc.trials}); got != tc.want {
			t.Errorf("progressEvery(trials=%d) = %d, want %d", tc.trials, got, tc.want)
		}
	}
}
