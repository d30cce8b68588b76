// Package analysis implements the sensitivity study behind resmod's one
// calibration: how the error-propagation profile a campaign measures
// depends on the contamination significance threshold (DESIGN.md §4).
package analysis

import (
	"fmt"
	"io"
	"time"

	"resmod/internal/apps"
	"resmod/internal/faultsim"
)

// Config shapes a sensitivity study.
type Config struct {
	App     apps.App
	Class   string
	Procs   int
	Trials  int // per point
	Seed    uint64
	Timeout time.Duration
	Workers int
}

func (c Config) campaign() faultsim.Campaign {
	return faultsim.Campaign{
		App: c.App, Class: c.Class, Procs: c.Procs, Trials: c.Trials,
		Seed: c.Seed, Timeout: c.Timeout, Workers: c.Workers,
	}
}

// golden computes the shared reference run.
func (c Config) golden() (*faultsim.Golden, error) {
	if c.App == nil {
		return nil, fmt.Errorf("analysis: Config.App is nil")
	}
	class := c.Class
	if class == "" {
		class = c.App.DefaultClass()
	}
	timeout := c.Timeout
	if timeout <= 0 {
		timeout = apps.DefaultTimeout
	}
	return faultsim.ComputeGolden(c.App, class, c.Procs, timeout)
}

// Ablation holds the sensitivity study of one configuration: on a
// parallel configuration, the contamination-threshold sweep (a serial
// run has one rank, so nothing to contaminate).
type Ablation struct {
	App    string
	Procs  int
	Trials int
	Tols   []TolPoint `json:",omitempty"`
}

// Ablate runs the study with its default points.
func Ablate(cfg Config) (*Ablation, error) {
	if cfg.App == nil {
		return nil, fmt.Errorf("analysis: Config.App is nil")
	}
	a := &Ablation{App: cfg.App.Name(), Procs: cfg.Procs, Trials: cfg.Trials}
	if cfg.Procs > 1 {
		var err error
		if a.Tols, err = TolSweep(cfg, nil); err != nil {
			return nil, err
		}
	}
	return a, nil
}

// Render prints the study as a text table.
func (a *Ablation) Render(w io.Writer) {
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
