package exper

import (
	"context"
	"fmt"
	"io"
	"math"

	"resmod/internal/core"
	"resmod/internal/faultsim"
)

// BaselineRow compares the paper's model against the two naive baselines a
// practitioner would otherwise use for a benchmark's large-scale success
// rate:
//
//   - SerialOnly: the serial single-error fault injection result, i.e.
//     assuming scale does not matter (what pre-paper practice did when a
//     large allocation was unavailable);
//   - SmallOnly: the small-scale deployment's overall result, i.e.
//     assuming the small scale is already representative.
//
// The paper's contribution is precisely the claim that combining the two
// through the propagation profile beats either alone.
type BaselineRow struct {
	Bench      string
	Class      string
	Small      int
	Large      int
	Measured   float64 // measured large-scale success rate
	Model      float64 // the paper's model
	SerialOnly float64
	SmallOnly  float64
}

// Errors returns the absolute errors of the three predictors.
func (r BaselineRow) Errors() (model, serialOnly, smallOnly float64) {
	abs := func(x float64) float64 {
		if x < 0 {
			return -x
		}
		return x
	}
	return abs(r.Model - r.Measured), abs(r.SerialOnly - r.Measured), abs(r.SmallOnly - r.Measured)
}

// Baselines evaluates the model against the naive predictors for every
// named benchmark.
func Baselines(s *Session, names []string, small, large int) ([]BaselineRow, error) {
	list, err := resolveApps(names)
	if err != nil {
		return nil, err
	}
	// One concurrent task per benchmark; within a task the baseline
	// campaigns follow the prediction, whose DAG already ran them (the
	// serial single-error point and the small-scale deployment), so they
	// resolve from the session's singleflight cache.
	rows := make([]BaselineRow, len(list))
	g := newGroup(s.Context())
	for i, a := range list {
		i, a := i, a
		g.Go(func(ctx context.Context) error {
			row, err := PredictOneCtx(ctx, s, a.Name(), "", small, large)
			if err != nil {
				return err
			}
			serial1, err := s.CampaignCtx(ctx, a, "", 1, 1, faultsim.CommonOnly)
			if err != nil {
				return err
			}
			smallSum, err := s.CampaignCtx(ctx, a, "", small, 1, faultsim.AnyRegion)
			if err != nil {
				return err
			}
			rows[i] = BaselineRow{
				Bench: a.Name(), Class: row.Class, Small: small, Large: large,
				Measured:   row.Measured.Success,
				Model:      row.Predicted.Success,
				SerialOnly: serial1.Rates.Success,
				SmallOnly:  smallSum.Rates.Success,
			}
			return nil
		})
	}
	if err := g.Wait(); err != nil {
		return nil, err
	}
	return rows, nil
}

// BaselineSummary aggregates RMSE per predictor.
type BaselineSummary struct {
	Model, SerialOnly, SmallOnly float64
}

// SummarizeBaselines computes each predictor's RMSE over the rows (Eq. 9).
func SummarizeBaselines(rows []BaselineRow) BaselineSummary {
	n := len(rows)
	if n == 0 {
		return BaselineSummary{}
	}
	var sm, ss, so float64
	for _, r := range rows {
		em, es, eo := r.Errors()
		sm += em * em
		ss += es * es
		so += eo * eo
	}
	inv := 1 / float64(n)
	return BaselineSummary{
		Model:      math.Sqrt(sm * inv),
		SerialOnly: math.Sqrt(ss * inv),
		SmallOnly:  math.Sqrt(so * inv),
	}
}

// RenderBaselines prints the comparison table.
func RenderBaselines(w io.Writer, rows []BaselineRow) {
	if len(rows) == 0 {
		return
	}
	fmt.Fprintf(w, "model vs naive baselines, predicting %d ranks (small scale %d)\n",
		rows[0].Large, rows[0].Small)
	fmt.Fprintf(w, "  %-14s %-10s %-16s %-16s %s\n",
		"benchmark", "measured", "model", "serial-only", "small-only")
	for _, r := range rows {
		em, es, eo := r.Errors()
		fmt.Fprintf(w, "  %-14s %-10s %-16s %-16s %s\n",
			fmt.Sprintf("%s (%s)", r.Bench, r.Class),
			fmtPct(r.Measured),
			fmt.Sprintf("%s (err %s)", fmtPct(r.Model), fmtPct(em)),
			fmt.Sprintf("%s (err %s)", fmtPct(r.SerialOnly), fmtPct(es)),
			fmt.Sprintf("%s (err %s)", fmtPct(r.SmallOnly), fmtPct(eo)))
	}
	sum := SummarizeBaselines(rows)
	fmt.Fprintf(w, "  RMSE: model %.4f, serial-only %.4f, small-only %.4f\n",
		sum.Model, sum.SerialOnly, sum.SmallOnly)
}

// ModelAblation measures what each model ingredient contributes: the full
// model, the model without alpha fine-tuning, and the model without the
// parallel-unique term, for one benchmark.
type ModelAblation struct {
	Bench    string
	Small    int
	Large    int
	Measured float64
	Full     float64
	NoTuning float64
	NoUnique float64
	Tuned    bool // whether the full model chose to tune
}

// AblateModel recomputes the prediction with individual ingredients
// disabled.
func AblateModel(s *Session, name, class string, small, large int) (*ModelAblation, error) {
	list, err := resolveApps([]string{name})
	if err != nil {
		return nil, err
	}
	a := list[0]
	if class == "" {
		class = a.DefaultClass()
	}
	inputs, measured, err := gatherModelInputs(s, a, class, small, large)
	if err != nil {
		return nil, err
	}
	full, err := core.Predict(*inputs)
	if err != nil {
		return nil, err
	}
	noTune := *inputs
	forceOff := false
	noTune.ForceTune = &forceOff
	nt, err := core.Predict(noTune)
	if err != nil {
		return nil, err
	}
	noUnique := *inputs
	noUnique.Prob2 = 0
	nu, err := core.Predict(noUnique)
	if err != nil {
		return nil, err
	}
	return &ModelAblation{
		Bench:    a.Name(),
		Small:    small,
		Large:    large,
		Measured: measured.Success,
		Full:     full.Rates.Success,
		NoTuning: nt.Rates.Success,
		NoUnique: nu.Rates.Success,
		Tuned:    full.Tuned,
	}, nil
}

// RenderModelAblation prints the four predictions.
func RenderModelAblation(w io.Writer, ab *ModelAblation) {
	fmt.Fprintf(w, "== model ablation: %s, predict %d from serial+%d ==\n",
		ab.Bench, ab.Large, ab.Small)
	fmt.Fprintf(w, "measured:            %5.1f%%\n", 100*ab.Measured)
	fmt.Fprintf(w, "full model:          %5.1f%% (tuning active: %v)\n", 100*ab.Full, ab.Tuned)
	fmt.Fprintf(w, "without alpha tune:  %5.1f%%\n", 100*ab.NoTuning)
	fmt.Fprintf(w, "without unique term: %5.1f%%\n", 100*ab.NoUnique)
}
