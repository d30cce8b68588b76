package exper

import (
	"fmt"
	"io"

	"resmod/internal/faultsim"
	"resmod/internal/fpe"
)

// TracedTrial is one fault injection test of a Trace.
type TracedTrial struct {
	faultsim.TrialRecord
	// Plan is the injection drawn for the target rank; Records the part of
	// it that executed there.
	Plan    []fpe.Injection
	Records []fpe.Record
	// ContaminatedRanks are the ranks the campaign's check counts.
	ContaminatedRanks []int
	// Check is rank 0's verification output; Failure the cause of a
	// Failure outcome, which has none.
	Check   []float64
	Failure string `json:",omitempty"`
}

// Trace is a verbose replay of a campaign's first trials: where each error
// landed at the application level (the capability the paper gets from its
// enhanced F-SEFI) and which ranks it contaminated.
type Trace struct {
	Bench          string
	Class          string
	Procs          int
	GoldenOps      uint64
	UniqueFraction float64
	GoldenCheck    []float64
	Trials         []TracedTrial
}

// TraceTrials replays every trial of the session's single-error campaign
// on procs ranks through faultsim.TraceTrial, so each outcome and
// contaminated set is the one `resmod campaign` tallies at the same seed.
func TraceTrials(s *Session, name, class string, procs int) (*Trace, error) {
	list, err := resolveApps([]string{name})
	if err != nil {
		return nil, err
	}
	a := list[0]
	if class == "" {
		class = a.DefaultClass()
	}
	golden, err := s.Golden(a, class, procs)
	if err != nil {
		return nil, err
	}
	c := s.campaign(a, class, procs, 1, faultsim.AnyRegion)
	tr := &Trace{
		Bench: a.Name(), Class: class, Procs: procs,
		GoldenOps:      golden.TotalCounts().Total(),
		UniqueFraction: golden.UniqueFraction(),
		GoldenCheck:    golden.Check,
	}
	for t := 0; t < c.Trials; t++ {
		rec, detail, err := faultsim.TraceTrial(s.Context(), c, golden, t)
		if err != nil {
			return nil, err
		}
		tt := TracedTrial{
			TrialRecord: rec, Plan: detail.Plan,
			Records:           detail.Exec.Ctxs[rec.TargetRank].Records(),
			ContaminatedRanks: detail.ContaminatedRanks,
		}
		if rec.Outcome == faultsim.Failure {
			tt.Failure = detail.Exec.Err.Error()
		} else {
			tt.Check = detail.Exec.Outputs[0].Check
		}
		tr.Trials = append(tr.Trials, tt)
	}
	return tr, nil
}

// RenderTrace prints the replay.
func RenderTrace(w io.Writer, tr *Trace) {
	fmt.Fprintf(w, "== trace: %s/%s on %d ranks, %d injected tests ==\n",
		tr.Bench, tr.Class, tr.Procs, len(tr.Trials))
	fmt.Fprintf(w, "golden: %d FP ops (%.2f%% parallel-unique), check=%v\n\n",
		tr.GoldenOps, 100*tr.UniqueFraction, tr.GoldenCheck)
	for t, tt := range tr.Trials {
		plan := tt.Plan[0]
		fmt.Fprintf(w, "test %d: rank %d, %s op #%d, bit %d\n",
			t, tt.TargetRank, plan.Class, plan.Index, plan.Bit)
		if tt.Outcome == faultsim.Failure {
			fmt.Fprintf(w, "  outcome: FAILURE (%s)\n\n", tt.Failure)
			continue
		}
		for _, rec := range tt.Records {
			region := rec.Region
			if region == "" {
				region = "main-loop"
			}
			fmt.Fprintf(w, "  fired in %s (%s): %v -> %v\n",
				region, rec.Op, rec.Before, rec.After)
		}
		outcome := "SUCCESS"
		if tt.Outcome == faultsim.SDC {
			outcome = "SDC"
		}
		fmt.Fprintf(w, "  outcome: %s, contaminated ranks: %v, check=%v\n\n",
			outcome, tt.ContaminatedRanks, tt.Check)
	}
}
