package exper

import (
	"context"
	"fmt"
	"io"
	"math"
	"strings"
	"time"

	"resmod/internal/apps"
	"resmod/internal/core"
	"resmod/internal/faultsim"
	"resmod/internal/stats"
	"resmod/internal/telemetry"
)

// PredictionRow is one benchmark's measured-vs-predicted entry of the
// paper's Figures 5, 6 and 7.
type PredictionRow struct {
	Bench     string
	Class     string
	Large     int // target scale p
	Small     int // small-scale size S used for profiling/tuning
	Measured  stats.Rates
	Predicted stats.Rates
	Tuned     bool
	// Error is |measured - predicted| success rate.
	Error float64
	// SmallTime is the wall time of the small-scale deployment and
	// SerialTime the *average* serial campaign time (the total over the
	// sampled serial deployments divided by the number of sample points),
	// for the Figure 8 cost axis.  Both are per-campaign elapsed times,
	// independent of how many campaigns ran concurrently.
	SmallTime  time.Duration
	SerialTime time.Duration
}

// gatherModelInputs runs the deployments of §4 for one benchmark and
// assembles the model inputs, the measured large-scale ground truth, and
// the campaign wall times.
func gatherModelInputs(s *Session, a apps.App, class string, small, large int) (*core.Inputs, stats.Rates, error) {
	in, _, _, measured, err := gatherModelInputsTimed(s.Context(), s, a, class, small, large)
	return in, measured, err
}

func gatherModelInputsTimed(ctx context.Context, s *Session, a apps.App, class string, small, large int) (
	*core.Inputs, time.Duration, time.Duration, stats.Rates, error) {
	xs, err := core.SampleXs(large, small)
	if err != nil {
		return nil, 0, 0, stats.Rates{}, err
	}

	// The prediction's campaign DAG: every serial curve point, the
	// small-scale profile deployment and the measured large run are
	// mutually independent; the unique-region deployment depends only on
	// the large golden (whose UniqueFraction decides whether it runs at
	// all).  All stages are submitted at once and execute under the
	// session's campaign-parallel slots and shared worker budget;
	// timings are per-campaign Elapsed sums, so SmallTime/SerialTime are
	// identical however many stages overlap.
	var (
		rates       = make([]stats.Rates, len(xs))
		serialTimes = make([]time.Duration, len(xs))
		smallSum    *faultsim.Summary
		prob2       float64
		unique      stats.Rates
		measured    stats.Rates
	)
	// Prediction-kind progress: one event per completed DAG stage, each
	// sampling the session scheduler.  Inert when the context carries no
	// Progress bus.
	pp := newPredictionProgress(telemetry.From(ctx).Progress(), s,
		fmt.Sprintf("%s/%s s%d p%d", a.Name(), class, small, large), len(xs)+3)
	stage := func(fn func(ctx context.Context) error) func(ctx context.Context) error {
		return func(ctx context.Context) error {
			if err := fn(ctx); err != nil {
				return err
			}
			pp.stageDone()
			return nil
		}
	}
	g := newGroup(ctx)
	for i, x := range xs {
		i, x := i, x
		g.Go(stage(func(ctx context.Context) error {
			sum, err := s.CampaignCtx(ctx, a, class, 1, x, faultsim.CommonOnly)
			if err != nil {
				return err
			}
			rates[i] = sum.Rates
			serialTimes[i] = sum.Elapsed
			return nil
		}))
	}
	g.Go(stage(func(ctx context.Context) error {
		// Small-scale deployment: propagation profile, conditional rates.
		sum, err := s.CampaignCtx(ctx, a, class, small, 1, faultsim.AnyRegion)
		if err != nil {
			return err
		}
		smallSum = sum
		return nil
	}))
	g.Go(stage(func(ctx context.Context) error {
		// Parallel-unique weight from the large-scale golden run (one
		// clean run — cheap; the expensive part the model avoids is the
		// large-scale deployment's thousands of injected runs), then the
		// unique-region deployment it gates.
		golden, err := s.GoldenCtx(ctx, a, class, large)
		if err != nil {
			return err
		}
		prob2 = golden.UniqueFraction()
		if prob2 > 0 {
			uc, err := s.CampaignCtx(ctx, a, class, small, 1, faultsim.UniqueOnly)
			if err != nil {
				return err
			}
			unique = uc.Rates
		}
		return nil
	}))
	g.Go(stage(func(ctx context.Context) error {
		// Ground truth: the measured large-scale deployment.
		sum, err := s.CampaignCtx(ctx, a, class, large, 1, faultsim.AnyRegion)
		if err != nil {
			return err
		}
		measured = sum.Rates
		return nil
	}))
	if err := g.Wait(); err != nil {
		pp.finish(err)
		return nil, 0, 0, stats.Rates{}, err
	}
	pp.finish(nil)

	curve, err := core.NewSerialCurve(large, xs, rates)
	if err != nil {
		return nil, 0, 0, stats.Rates{}, err
	}
	var serialTime time.Duration
	for _, d := range serialTimes {
		serialTime += d
	}
	serialTime /= time.Duration(len(xs))
	cond := make(map[int]stats.Rates)
	for x := 1; x <= small; x++ {
		if r, ok := smallSum.ConditionalRates(x); ok {
			cond[x] = r
		}
	}

	in := &core.Inputs{
		P:                large,
		Serial:           curve,
		SmallProfile:     smallSum.Hist.Probabilities(),
		SmallConditional: cond,
		Prob2:            prob2,
		Unique:           unique,
	}
	return in, smallSum.Elapsed, serialTime, measured, nil
}

// PredictOne runs the full modeling pipeline of §4 for one benchmark:
// serial sampled multi-error deployments, a small-scale deployment for the
// propagation profile / tuning factors / parallel-unique rates, and the
// measured large-scale deployment for ground truth.
func PredictOne(s *Session, name, class string, small, large int) (*PredictionRow, error) {
	return PredictOneCtx(s.Context(), s, name, class, small, large)
}

// PredictOneCtx is PredictOne under a caller-supplied context, so a
// caller (e.g. the prediction service) can scope the pipeline's trace
// spans and cancellation to one job.
func PredictOneCtx(ctx context.Context, s *Session, name, class string, small, large int) (*PredictionRow, error) {
	list, err := resolveApps([]string{name})
	if err != nil {
		return nil, err
	}
	a := list[0]
	if class == "" {
		class = a.DefaultClass()
	}
	tel := telemetry.From(ctx)
	ctx, span := tel.Tracer().Start(ctx, "predict",
		telemetry.String("bench", a.Name()),
		telemetry.String("class", class),
		telemetry.Int("small", small),
		telemetry.Int("large", large))
	defer span.End()
	inputs, smallTime, serialTime, measured, err := gatherModelInputsTimed(ctx, s, a, class, small, large)
	if err != nil {
		return nil, err
	}
	pred, err := core.Predict(*inputs)
	if err != nil {
		return nil, err
	}
	predRates := pred.Rates
	return &PredictionRow{
		Bench: a.Name(), Class: class, Large: large, Small: small,
		Measured:  measured,
		Predicted: predRates,
		Tuned:     pred.Tuned,
		Error:     core.PredictionError(measured, predRates),
		SmallTime: smallTime, SerialTime: serialTime,
	}, nil
}

// PredictAll runs PredictOne for every named benchmark (all registered
// when names is empty) — one of the paper's Figure 5/6 panels.  All
// benchmarks' campaign DAGs are submitted concurrently (the session's
// scheduler bounds actual execution); row order follows the name order
// regardless of completion order.
func PredictAll(s *Session, names []string, small, large int) ([]PredictionRow, error) {
	list, err := resolveApps(names)
	if err != nil {
		return nil, err
	}
	rows := make([]PredictionRow, len(list))
	g := newGroup(s.Context())
	for i, a := range list {
		i, a := i, a
		g.Go(func(ctx context.Context) error {
			row, err := PredictOneCtx(ctx, s, a.Name(), "", small, large)
			if err != nil {
				return err
			}
			rows[i] = *row
			return nil
		})
	}
	if err := g.Wait(); err != nil {
		return nil, err
	}
	return rows, nil
}

// PredictConfig names one prediction's benchmark, class and small scale.
type PredictConfig struct {
	App, Class string
	Small      int
}

// PredictEach runs PredictOne for every configuration at one target scale
// — the paper's Figure 7 panel, whose rows differ in class and small scale.
func PredictEach(s *Session, large int, configs []PredictConfig) ([]PredictionRow, error) {
	rows := make([]PredictionRow, 0, len(configs))
	for _, c := range configs {
		row, err := PredictOne(s, c.App, c.Class, c.Small, large)
		if err != nil {
			return nil, err
		}
		rows = append(rows, *row)
	}
	return rows, nil
}

// SummarizeErrors returns the average and maximum success-rate prediction
// error over the rows (the paper's headline numbers).
func SummarizeErrors(rows []PredictionRow) (avg, max float64) {
	if len(rows) == 0 {
		return 0, 0
	}
	for _, r := range rows {
		avg += r.Error
		if r.Error > max {
			max = r.Error
		}
	}
	return avg / float64(len(rows)), max
}

// RMSEOf returns the paper's Eq. 9 over the rows' success rates.
func RMSEOf(rows []PredictionRow) float64 {
	measured := make([]float64, len(rows))
	predicted := make([]float64, len(rows))
	for i, r := range rows {
		measured[i] = r.Measured.Success
		predicted[i] = r.Predicted.Success
	}
	rmse, err := stats.RMSE(measured, predicted)
	if err != nil {
		return 0
	}
	return rmse
}

// RenderPredictions prints a Figure 5/6/7 style table.
func RenderPredictions(w io.Writer, rows []PredictionRow) {
	if len(rows) == 0 {
		return
	}
	fmt.Fprintf(w, "prediction for %d ranks from serial + %d ranks\n",
		rows[0].Large, rows[0].Small)
	fmt.Fprintf(w, "  %-14s %-10s %-10s %-8s %s\n",
		"benchmark", "measured", "predicted", "error", "tuned")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-14s %-10s %-10s %-8s %v\n",
			fmt.Sprintf("%s (%s)", r.Bench, r.Class),
			fmtPct(r.Measured.Success), fmtPct(r.Predicted.Success),
			fmtPct(r.Error), r.Tuned)
	}
	avg, max := SummarizeErrors(rows)
	fmt.Fprintf(w, "  average error %s, max %s, RMSE %.4f\n",
		fmtPct(avg), fmtPct(max), RMSEOf(rows))
}

// MarkdownPredictions prints a Figure 5/6 panel — every benchmark from one
// small scale — closing with the paper's headline errors beside the
// measured ones.
func MarkdownPredictions(w io.Writer, rows []PredictionRow, paper string) {
	fmt.Fprintf(w, "| benchmark | measured success | predicted | abs error | tuned |\n")
	fmt.Fprintf(w, "|---|---|---|---|---|\n")
	for _, r := range rows {
		fmt.Fprintf(w, "| %s (%s) | %.1f%% | %.1f%% | %.1f%% | %v |\n",
			r.Bench, r.Class, 100*r.Measured.Success, 100*r.Predicted.Success,
			100*r.Error, r.Tuned)
	}
	avg, max := SummarizeErrors(rows)
	fmt.Fprintf(w, "\nPaper: %s.  Measured: %.1f%% avg, %.1f%% max.\n\n",
		paper, 100*avg, 100*max)
}

// MarkdownScales prints a Figure 7 panel — rows that differ in their small
// scale — closing with the paper's error bounds beside the worst measured
// error of each small scale, in order of first appearance.
func MarkdownScales(w io.Writer, rows []PredictionRow, paper string) {
	fmt.Fprintf(w, "| benchmark | small | measured | predicted | abs error |\n|---|---|---|---|---|\n")
	var smalls []int
	worst := make(map[int]float64)
	for _, r := range rows {
		fmt.Fprintf(w, "| %s (%s) | %d | %.1f%% | %.1f%% | %.1f%% |\n",
			r.Bench, r.Class, r.Small, 100*r.Measured.Success,
			100*r.Predicted.Success, 100*r.Error)
		if _, seen := worst[r.Small]; !seen {
			smalls = append(smalls, r.Small)
		}
		worst[r.Small] = math.Max(worst[r.Small], r.Error)
	}
	bounds := make([]string, len(smalls))
	for i, small := range smalls {
		bounds[i] = fmt.Sprintf("<= %.1f%%", 100*worst[small])
	}
	fmt.Fprintf(w, "\nPaper: %s.  Measured: %s.\n\n", paper, strings.Join(bounds, " and "))
}
