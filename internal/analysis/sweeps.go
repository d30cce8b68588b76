package analysis

import (
	"fmt"
	"io"
)

// Sweeps holds every sensitivity study of one configuration: the ablation
// studies behind the paper's design choices — bit-position severity,
// instruction-kind sensitivity (paper §2), injection-phase sensitivity,
// fault-pattern comparison and, on a parallel configuration, the
// contamination-threshold sweep.
type Sweeps struct {
	App      string
	Procs    int
	Trials   int
	Bits     []BitPoint
	Kinds    []KindPoint
	Phases   []PhasePoint
	Patterns []PatternPoint
	Tols     []TolPoint `json:",omitempty"`
}

// AllSweeps runs the five studies with their default points.
func AllSweeps(cfg Config) (*Sweeps, error) {
	if cfg.App == nil {
		return nil, fmt.Errorf("analysis: Config.App is nil")
	}
	s := &Sweeps{App: cfg.App.Name(), Procs: cfg.Procs, Trials: cfg.Trials}
	var err error
	if s.Bits, err = BitSweep(cfg, nil); err != nil {
		return nil, err
	}
	if s.Kinds, err = KindSweep(cfg); err != nil {
		return nil, err
	}
	if s.Phases, err = PhaseSweep(cfg, 4); err != nil {
		return nil, err
	}
	if s.Patterns, err = PatternSweep(cfg); err != nil {
		return nil, err
	}
	if cfg.Procs > 1 {
		if s.Tols, err = TolSweep(cfg, nil); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// Render prints the studies as text tables.
func (s *Sweeps) Render(w io.Writer) {
	fmt.Fprintf(w, "== ablation studies: %s, %d ranks, %d tests/point ==\n",
		s.App, s.Procs, s.Trials)
	fmt.Fprintln(w, "bit-position sensitivity:")
	for _, p := range s.Bits {
		lo, hi := p.Rates.SuccessInterval()
		fmt.Fprintf(w, "  %-14s success=%5.1f%%  (95%% CI %.1f-%.1f%%)  sdc=%5.1f%%\n",
			p.Band.Name, 100*p.Rates.Success, 100*lo, 100*hi, 100*p.Rates.SDC)
	}
	fmt.Fprintln(w, "instruction-kind sensitivity:")
	for _, p := range s.Kinds {
		fmt.Fprintf(w, "  %-14s success=%5.1f%%  sdc=%5.1f%%\n",
			p.Name, 100*p.Rates.Success, 100*p.Rates.SDC)
	}
	fmt.Fprintln(w, "injection-phase sensitivity:")
	for _, p := range s.Phases {
		fmt.Fprintf(w, "  window %.2f-%.2f  success=%5.1f%%  sdc=%5.1f%%\n",
			p.Window[0], p.Window[1], 100*p.Rates.Success, 100*p.Rates.SDC)
	}
	fmt.Fprintln(w, "fault-pattern sensitivity:")
	for _, p := range s.Patterns {
		fmt.Fprintf(w, "  %-14s success=%5.1f%%  sdc=%5.1f%%  failure=%.1f%%\n",
			p.Pattern, 100*p.Rates.Success, 100*p.Rates.SDC, 100*p.Rates.Failure)
	}
	if len(s.Tols) > 0 {
		fmt.Fprintln(w, "contamination-threshold sensitivity:")
	}
	for _, p := range s.Tols {
		label := fmt.Sprintf("%.0e", p.Tol)
		if p.Tol < 0 {
			label = "bit-exact"
		}
		fmt.Fprintf(w, "  tol %-10s mean contaminated=%.2f  all-ranks fraction=%.1f%%\n",
			label, p.MeanContaminated, 100*p.FullFraction)
	}
}
