package faultsim

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"resmod/internal/apps"
	"resmod/internal/fpe"
	"resmod/internal/simmpi"
)

// ---- cancellation and budget ---------------------------------------------

func TestCancellationReturnsPartialSummary(t *testing.T) {
	// Every injected spinApp trial spins until the per-trial Timeout, so
	// without cancellation this campaign would take ~Trials/Workers x 2s.
	c := Campaign{
		App: spinApp{}, Procs: 2, Trials: 40, Seed: 2,
		Timeout: 2 * time.Second, Workers: 2,
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(100 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	sum, err := RunCtx(ctx, c)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	// Acceptance: cancellation returns within one trial timeout.
	if elapsed > c.Timeout {
		t.Fatalf("cancellation took %v, want < %v", elapsed, c.Timeout)
	}
	if !sum.Interrupted {
		t.Fatal("summary not flagged Interrupted")
	}
	if sum.TrialsDone >= uint64(c.Trials) {
		t.Fatalf("TrialsDone = %d, want partial (< %d)", sum.TrialsDone, c.Trials)
	}
	if sum.Rates.N != sum.TrialsDone {
		t.Fatalf("Rates.N = %d, TrialsDone = %d", sum.Rates.N, sum.TrialsDone)
	}
}

func TestBudgetInterruptsCampaign(t *testing.T) {
	c := Campaign{
		App: spinApp{}, Procs: 2, Trials: 40, Seed: 2,
		Timeout: 2 * time.Second, Workers: 2,
		Budget: 200 * time.Millisecond,
	}
	start := time.Now()
	sum, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > c.Timeout+time.Second {
		t.Fatalf("budget expiry took %v to stop the campaign", elapsed)
	}
	if !sum.Interrupted {
		t.Fatal("budget-exhausted summary not flagged Interrupted")
	}
	if sum.TrialsDone >= uint64(c.Trials) {
		t.Fatalf("TrialsDone = %d, want partial", sum.TrialsDone)
	}
}

func TestCompletedCampaignNotInterrupted(t *testing.T) {
	sum, err := Run(Campaign{App: lookup(t, "PENNANT"), Procs: 2, Trials: 10, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Interrupted {
		t.Fatal("complete campaign flagged Interrupted")
	}
	if sum.TrialsDone != 10 || sum.Abnormal != 0 {
		t.Fatalf("TrialsDone = %d, Abnormal = %d", sum.TrialsDone, sum.Abnormal)
	}
}

// ---- outcome classification vs harness containment -----------------------

// verifyPanicApp's checker panics: a harness-side bug, not an application
// crash — it must be contained, retried, and reported as abnormal, never as
// a Failure outcome.
type verifyPanicApp struct{ verifies *atomic.Int64 }

func (verifyPanicApp) Name() string         { return "verify-panic-test" }
func (verifyPanicApp) Classes() []string    { return []string{"X"} }
func (verifyPanicApp) DefaultClass() string { return "X" }
func (verifyPanicApp) MaxProcs(string) int  { return 8 }

func (a verifyPanicApp) Verify(g, c []float64) bool {
	a.verifies.Add(1)
	panic("checker bug")
}

func (verifyPanicApp) Run(fc *fpe.Ctx, comm *simmpi.Comm, class string) (apps.RankOutput, error) {
	s := 0.0
	for i := 0; i < 100; i++ {
		s = fc.Add(s, float64(i))
	}
	return apps.RankOutput{State: []float64{s}, Check: []float64{s}}, nil
}

func TestFailureClassificationVsHarnessContainment(t *testing.T) {
	// A hang hitting a tiny per-trial Timeout is an application Failure.
	hung, err := Run(Campaign{
		App: hangApp{}, Procs: 2, Trials: 4, Seed: 2,
		Timeout: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if hung.Rates.Failure != 1 || hung.Abnormal != 0 {
		t.Fatalf("hang: rates = %+v abnormal = %d, want all Failure, none abnormal",
			hung.Rates, hung.Abnormal)
	}

	// An application panic inside a rank is also a Failure.
	crashed, err := Run(Campaign{App: crashApp{}, Procs: 2, Trials: 6, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if crashed.Rates.Failure != 1 || crashed.Abnormal != 0 {
		t.Fatalf("crash: rates = %+v abnormal = %d, want all Failure, none abnormal",
			crashed.Rates, crashed.Abnormal)
	}

	// A panic escaping the harness (the checker) is contained, retried,
	// and surfaced as abnormal — it contributes to no outcome tally.
	var verifies atomic.Int64
	sum, err := Run(Campaign{
		App: verifyPanicApp{verifies: &verifies}, Procs: 1, Trials: 3, Seed: 2,
		MaxAbnormal: 3, AbnormalRetries: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Abnormal != 3 {
		t.Fatalf("Abnormal = %d, want 3", sum.Abnormal)
	}
	if sum.Rates.N != 0 || sum.TrialsDone != 0 {
		t.Fatalf("abnormal trials leaked into tallies: N=%d done=%d", sum.Rates.N, sum.TrialsDone)
	}
	if sum.Interrupted {
		t.Fatal("abnormal-tolerating campaign flagged Interrupted")
	}
	// 3 trials x (1 attempt + 1 retry) = 6 checker invocations.
	if got := verifies.Load(); got != 6 {
		t.Fatalf("checker invoked %d times, want 6 (retry per abnormal trial)", got)
	}
}

func TestHarnessPanicFailsCampaignWithoutBudget(t *testing.T) {
	var verifies atomic.Int64
	_, err := Run(Campaign{
		App: verifyPanicApp{verifies: &verifies}, Procs: 1, Trials: 3, Seed: 2,
		AbnormalRetries: -1, // MaxAbnormal defaults to 0
	})
	if err == nil {
		t.Fatal("harness panic with zero abnormal budget did not fail the campaign")
	}
	if !strings.Contains(err.Error(), "harness panic") {
		t.Fatalf("error does not identify the harness panic: %v", err)
	}
}

// ---- early-abort behaviour ------------------------------------------------

// abnormalApp reports a setup error on every injected trial: the trial is
// abnormal (a *simmpi.RankError, not a crash/hang outcome).
type abnormalApp struct{ runs *atomic.Int64 }

func (abnormalApp) Name() string               { return "abnormal-test" }
func (abnormalApp) Classes() []string          { return []string{"X"} }
func (abnormalApp) DefaultClass() string       { return "X" }
func (abnormalApp) MaxProcs(string) int        { return 8 }
func (abnormalApp) Verify(g, c []float64) bool { return apps.VerifyRel(g, c, 1e-12) }

func (a abnormalApp) Run(fc *fpe.Ctx, comm *simmpi.Comm, class string) (apps.RankOutput, error) {
	if a.runs != nil {
		a.runs.Add(1)
	}
	s := 0.0
	for i := 0; i < 100; i++ {
		s = fc.Add(s, float64(i))
	}
	if fc.Fired() > 0 {
		return apps.RankOutput{}, errors.New("application setup error")
	}
	return apps.RankOutput{State: []float64{s}, Check: []float64{s}}, nil
}

func TestAbnormalErrorCitesLowestTrialIndex(t *testing.T) {
	// With a single worker the trial order is exactly 0, 1, 2, ... — the
	// campaign error must cite trial 0, not an arbitrary later trial.
	_, err := Run(Campaign{
		App: abnormalApp{}, Procs: 1, Trials: 10, Seed: 5,
		Workers: 1, AbnormalRetries: -1,
	})
	if err == nil {
		t.Fatal("all-abnormal campaign succeeded")
	}
	if !strings.Contains(err.Error(), "trial 0 ") {
		t.Fatalf("error does not cite trial 0: %v", err)
	}
}

func TestAbnormalOverflowStopsOtherWorkersPromptly(t *testing.T) {
	// Before the resilience layer, one worker's error was only observed
	// after every other worker had run ALL its remaining trials.  Now the
	// overflow cancels the shared context: only in-flight trials finish.
	var runs atomic.Int64
	_, err := Run(Campaign{
		App: abnormalApp{runs: &runs}, Procs: 1, Trials: 200, Seed: 5,
		Workers: 4, AbnormalRetries: -1,
	})
	if err == nil {
		t.Fatal("all-abnormal campaign succeeded")
	}
	// Each of the 4 workers can finish at most a couple of in-flight
	// trials before observing the abort; 200 would mean no early abort.
	if got := runs.Load(); got > 50 {
		t.Fatalf("%d trials ran after the first abnormal error; early abort not propagated", got)
	}
}

func TestAbnormalToleratedUpToBudget(t *testing.T) {
	sum, err := Run(Campaign{
		App: abnormalApp{}, Procs: 1, Trials: 5, Seed: 5,
		MaxAbnormal: 5, AbnormalRetries: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Abnormal != 5 || sum.TrialsDone != 0 {
		t.Fatalf("Abnormal = %d TrialsDone = %d, want 5 and 0", sum.Abnormal, sum.TrialsDone)
	}
}
