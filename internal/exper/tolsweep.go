package exper

import (
	"fmt"
	"io"

	"resmod/internal/faultsim"
	"resmod/internal/stats"
)

// Ablation holds the sensitivity study of one configuration: on a
// parallel configuration, the contamination-threshold sweep (a serial
// run has one rank, so nothing to contaminate).
type Ablation struct {
	App    string
	Procs  int
	Trials int
	Tols   []TolPoint `json:",omitempty"`
}

// TolPoint is one contamination-tolerance setting's propagation summary.
type TolPoint struct {
	// Tol is the contamination tolerance (negative = bit-exact).
	Tol float64
	// Rates is the overall fault injection result (independent of Tol by
	// construction — included as a sanity anchor).
	Rates stats.Rates
	// MeanContaminated is the average number of contaminated ranks per
	// completed test.
	MeanContaminated float64
	// FullFraction is the fraction of completed tests contaminating every
	// rank.
	FullFraction float64
}

// TolSweep measures how the error-propagation profile depends on the
// contamination significance threshold — the calibration knob that aligns
// resmod's deterministic substrate with the paper's real-MPI testbed,
// where reduction-order noise makes only above-noise divergence observable
// (DESIGN.md §4).  Bit-exact comparison counts every ULP of dilution as
// contamination and badly overstates how often "all ranks" are meaningfully
// corrupted; the checker-scale default restores the paper's Observation 4.
//
// Each point is the session's single-error campaign on procs ranks with
// the point's tolerance, so it shares the session's golden run, runners,
// budget, cache and cancellation, and the default tolerance's point is the
// campaign every other row runs.
func TolSweep(s *Session, name, class string, procs int) (*Ablation, error) {
	list, err := resolveApps([]string{name})
	if err != nil {
		return nil, err
	}
	a := &Ablation{App: list[0].Name(), Procs: procs, Trials: s.cfg.Trials}
	if procs <= 1 {
		return a, nil
	}
	for _, tol := range []float64{-1, 1e-13, faultsim.DefaultContaminationTol, 1e-7} {
		c := s.campaign(list[0], class, procs, 1, faultsim.AnyRegion)
		c.ContaminationTol = tol
		sum, err := s.run(s.Context(), c)
		if err != nil {
			return nil, err
		}
		pt := TolPoint{Tol: tol, Rates: sum.Rates}
		if total := sum.Hist.Total(); total > 0 {
			var mean float64
			for x, cnt := range sum.Hist.Counts {
				mean += float64(x+1) * float64(cnt)
			}
			pt.MeanContaminated = mean / float64(total)
			pt.FullFraction = float64(sum.Hist.Counts[procs-1]) / float64(total)
		}
		a.Tols = append(a.Tols, pt)
	}
	return a, nil
}

// RenderTolSweep prints the study as a text table.
func RenderTolSweep(w io.Writer, a *Ablation) {
	fmt.Fprintf(w, "== ablation studies: %s, %d ranks, %d tests/point ==\n",
		a.App, a.Procs, a.Trials)
	if len(a.Tols) > 0 {
		fmt.Fprintln(w, "contamination-threshold sensitivity:")
	}
	for _, p := range a.Tols {
		label := fmt.Sprintf("%.0e", p.Tol)
		if p.Tol < 0 {
			label = "bit-exact"
		}
		fmt.Fprintf(w, "  tol %-10s mean contaminated=%.2f  all-ranks fraction=%.1f%%\n",
			label, p.MeanContaminated, 100*p.FullFraction)
	}
}
