package exper

import (
	"context"
	"fmt"
	"io"

	"resmod/internal/faultsim"
	"resmod/internal/stats"
)

// Fig3Result reproduces one benchmark's panel of the paper's Figure 3:
// success rate of the serial execution with x errors injected versus the
// parallel execution (8 ranks) with x ranks contaminated.
type Fig3Result struct {
	Bench string
	Class string
	Procs int
	// SerialSuccess[x-1] is the success rate with x errors injected into
	// the serial common computation.
	SerialSuccess []float64
	// ParallelSuccess[x-1] is the success rate over parallel tests that
	// contaminated exactly x ranks; HasParallel marks x values observed.
	ParallelSuccess []float64
	HasParallel     []bool
}

// Fig3 characterizes one benchmark (the paper uses 8 ranks).
func Fig3(s *Session, name string, procs int) (*Fig3Result, error) {
	list, err := resolveApps([]string{name})
	if err != nil {
		return nil, err
	}
	a := list[0]
	class := a.DefaultClass()
	res := &Fig3Result{
		Bench: a.Name(), Class: class, Procs: procs,
		SerialSuccess:   make([]float64, procs),
		ParallelSuccess: make([]float64, procs),
		HasParallel:     make([]bool, procs),
	}
	// Every serial curve point and the parallel deployment are
	// independent campaigns; submit them all and let the session's
	// scheduler bound execution.
	var par *faultsim.Summary
	g := newGroup(s.Context())
	for x := 1; x <= procs; x++ {
		x := x
		g.Go(func(ctx context.Context) error {
			ser, err := s.CampaignCtx(ctx, a, class, 1, x, faultsim.CommonOnly)
			if err != nil {
				return err
			}
			res.SerialSuccess[x-1] = ser.Rates.Success
			return nil
		})
	}
	g.Go(func(ctx context.Context) error {
		sum, err := s.CampaignCtx(ctx, a, class, procs, 1, faultsim.AnyRegion)
		if err != nil {
			return err
		}
		par = sum
		return nil
	})
	if err := g.Wait(); err != nil {
		return nil, err
	}
	for x := 1; x <= procs; x++ {
		if r, ok := par.ConditionalRates(x); ok {
			res.ParallelSuccess[x-1] = r.Success
			res.HasParallel[x-1] = true
		}
	}
	return res, nil
}

// Fig3All characterizes every named benchmark (the paper's six when names
// is empty), one panel each.
func Fig3All(s *Session, names []string, procs int) ([]*Fig3Result, error) {
	if len(names) == 0 {
		names = PaperBenchmarks
	}
	panels := make([]*Fig3Result, 0, len(names))
	for _, n := range names {
		r, err := Fig3(s, n, procs)
		if err != nil {
			return nil, err
		}
		panels = append(panels, r)
	}
	return panels, nil
}

// Variances returns the success-rate variances of the two series (the
// paper's Observation 4 compares them).  Parallel variance is over the
// observed x values only.
func (r *Fig3Result) Variances() (serial, parallel float64) {
	serial = stats.Variance(r.SerialSuccess)
	var obs []float64
	for i, ok := range r.HasParallel {
		if ok {
			obs = append(obs, r.ParallelSuccess[i])
		}
	}
	parallel = stats.Variance(obs)
	return serial, parallel
}

// RenderFig3 prints one panel.
func RenderFig3(w io.Writer, r *Fig3Result) {
	fmt.Fprintf(w, "%s (%s), parallel scale %d ranks\n", r.Bench, r.Class, r.Procs)
	fmt.Fprintf(w, "  %-4s %-22s %s\n", "x", "serial (x errors)", "parallel (x contaminated)")
	for x := 1; x <= r.Procs; x++ {
		par := "-"
		if r.HasParallel[x-1] {
			par = fmtPct(r.ParallelSuccess[x-1])
		}
		fmt.Fprintf(w, "  %-4d %-22s %s\n", x, fmtPct(r.SerialSuccess[x-1]), par)
	}
	sv, pv := r.Variances()
	fmt.Fprintf(w, "  variance: serial %.4f, parallel %.4f\n", sv, pv)
}
