package faultsim

import (
	"context"
	"reflect"
	"testing"

	"resmod/internal/apps"
)

// TestTraceTrialMatchesCampaign: tracing is the campaign's own trial, not a
// second implementation of it — the records of traced trials 0..19,
// tallied, are the Summary of the 20-trial campaign at the same seed, and
// each detail's contaminated-rank list is the count the tally used.  A
// traced trial runs from op 0 while the campaign's trials resume from its
// prefix table, so this also holds every paper app's resumed trials to the
// op-0 reference.
func TestTraceTrialMatchesCampaign(t *testing.T) {
	const trials = 20
	for _, name := range []string{"CG", "FT", "MG", "LU", "MiniFE", "PENNANT"} {
		for _, procs := range []int{4, 16} {
			app := lookup(t, name)
			golden, err := ComputeGolden(app, app.DefaultClass(), procs, apps.DefaultTimeout)
			if err != nil {
				t.Fatal(err)
			}
			c := Campaign{App: app, Procs: procs, Trials: trials, Seed: 2018}
			want, err := RunAgainst(c, golden)
			if err != nil {
				t.Fatal(err)
			}

			tally := newTally(c.Procs)
			fired := 0
			for i := 0; i < trials; i++ {
				rec, detail, err := TraceTrial(context.Background(), c, golden, i)
				if err != nil {
					t.Fatalf("%s p=%d trial %d: %v", name, procs, i, err)
				}
				if rec.Outcome != Failure && len(detail.ContaminatedRanks) != rec.Contaminated {
					t.Fatalf("%s p=%d trial %d: detail lists ranks %v, record counts %d",
						name, procs, i, detail.ContaminatedRanks, rec.Contaminated)
				}
				if n := detail.Exec.Ctxs[rec.TargetRank].Fired(); n != rec.Fired || len(detail.Plan) != 1 {
					t.Fatalf("%s p=%d trial %d: detail has %d fired of plan %v, record fired %d",
						name, procs, i, n, detail.Plan, rec.Fired)
				}
				tally.add(rec)
				fired += rec.Fired
			}
			got := tally.summary()
			if got.Counts != want.Counts || !reflect.DeepEqual(got.Hist, want.Hist) ||
				!reflect.DeepEqual(got.SpreadByDistance, want.SpreadByDistance) {
				t.Errorf("%s p=%d: traced tally %+v %v, campaign %+v %v",
					name, procs, got.Counts, got.Hist.Counts, want.Counts, want.Hist.Counts)
			}
			if avg := float64(fired) / trials; avg != want.AvgFired {
				t.Errorf("%s p=%d: traced AvgFired %g, campaign %g", name, procs, avg, want.AvgFired)
			}
		}
	}
}
