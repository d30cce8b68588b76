package analysis

import (
	"fmt"
	"io"
	"sort"

	"resmod/internal/fpe"
)

// ProtectionTarget is one candidate slice of the computation for selective
// protection (duplication, checksumming, ...), with its projected payoff.
type ProtectionTarget struct {
	// Name describes the slice ("phase [0.50,0.75)", "mul operations").
	Name string
	// Share is the fraction of injectable operations the slice covers —
	// the first-order cost of protecting it.
	Share float64
	// SDC is the conditional SDC rate of faults landing in the slice.
	SDC float64
	// Contribution is the slice's share of the overall SDC rate
	// (Share * SDC / overall).
	Contribution float64
	// Residual is the projected overall SDC rate if the slice were
	// perfectly protected.
	Residual float64
	// Leverage is Contribution / Share: how much better than uniform
	// protection this slice is.
	Leverage float64
}

// Advice ranks protection targets for one application configuration.
type Advice struct {
	// App and Procs name the configuration measured.
	App   string
	Procs int
	// BaseSDC is the unprotected overall SDC rate.
	BaseSDC float64
	// Targets are the candidate slices sorted by descending leverage.
	Targets []ProtectionTarget
}

// Advise measures where selective protection buys the most: it sweeps the
// execution phases and the instruction kinds, decomposes the overall SDC
// rate into each slice's contribution, and ranks slices by leverage.
// This is the decision the paper's introduction motivates — using
// application-resilience knowledge to "design efficient fault tolerance
// mechanisms" — made concrete.
func Advise(cfg Config, phases int) (*Advice, error) {
	if phases < 1 {
		return nil, fmt.Errorf("analysis: need at least one phase")
	}
	golden, err := cfg.golden()
	if err != nil {
		return nil, err
	}

	// Kind shares from the golden run's dynamic counts.
	var kc fpe.KindCounts
	for _, k := range golden.KindCounts {
		for cl := range k.ByClassKind {
			for kind := range k.ByClassKind[cl] {
				kc.ByClassKind[cl][kind] += k.ByClassKind[cl][kind]
			}
		}
	}
	total := float64(kc.Of(fpe.Common, 0) + kc.Of(fpe.Unique, 0))
	if total == 0 {
		return nil, fmt.Errorf("analysis: golden run has no injectable ops")
	}
	addMask := uint8(1<<uint(fpe.OpAdd) | 1<<uint(fpe.OpSub))
	mulMask := uint8(1 << uint(fpe.OpMul))
	addShare := float64(kc.Of(fpe.Common, addMask)+kc.Of(fpe.Unique, addMask)) / total
	mulShare := float64(kc.Of(fpe.Common, mulMask)+kc.Of(fpe.Unique, mulMask)) / total

	var targets []ProtectionTarget

	// Phase slices (equal op shares by construction).
	phasePoints, err := PhaseSweep(cfg, phases)
	if err != nil {
		return nil, err
	}
	for _, p := range phasePoints {
		targets = append(targets, ProtectionTarget{
			Name:  fmt.Sprintf("phase [%.2f,%.2f)", p.Window[0], p.Window[1]),
			Share: 1 / float64(phases),
			SDC:   p.Rates.SDC,
		})
	}

	// Kind slices.
	kindPoints, err := KindSweep(cfg)
	if err != nil {
		return nil, err
	}
	for _, k := range kindPoints {
		switch k.Name {
		case "add":
			targets = append(targets, ProtectionTarget{
				Name: "add/sub operations", Share: addShare, SDC: k.Rates.SDC,
			})
		case "mul":
			targets = append(targets, ProtectionTarget{
				Name: "mul operations", Share: mulShare, SDC: k.Rates.SDC,
			})
		}
	}

	// Overall SDC as the op-share-weighted mean of the phase slices (the
	// phases partition the stream exactly).
	var base float64
	for _, p := range phasePoints {
		base += p.Rates.SDC / float64(phases)
	}
	adv := &Advice{App: cfg.App.Name(), Procs: cfg.Procs, BaseSDC: base}
	for _, t := range targets {
		t.Contribution = 0
		if base > 0 {
			t.Contribution = t.Share * t.SDC / base
		}
		t.Residual = base - t.Share*t.SDC
		if t.Residual < 0 {
			t.Residual = 0
		}
		if t.Share > 0 {
			t.Leverage = t.Contribution / t.Share
		}
		adv.Targets = append(adv.Targets, t)
	}
	sort.Slice(adv.Targets, func(i, j int) bool {
		return adv.Targets[i].Leverage > adv.Targets[j].Leverage
	})
	return adv, nil
}

// Render prints the advice as a ranked table.
func (a *Advice) Render(w io.Writer) {
	fmt.Fprintf(w, "== protection advice: %s, %d ranks ==\n", a.App, a.Procs)
	fmt.Fprintf(w, "unprotected SDC rate: %.1f%%\n", 100*a.BaseSDC)
	fmt.Fprintf(w, "%-22s %-8s %-10s %-14s %-12s %s\n",
		"slice", "cost", "slice SDC", "contribution", "residual", "leverage")
	for _, t := range a.Targets {
		fmt.Fprintf(w, "%-22s %-8.2f %-10.3f %-14.3f %-12.3f %.2f\n",
			t.Name, t.Share, t.SDC, t.Contribution, t.Residual, t.Leverage)
	}
}
