package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"strings"
	"time"

	"resmod/internal/apps"
	"resmod/internal/faultsim"
	"resmod/internal/stats"
)

// campaignOptions are the knobs of one custom deployment.
type campaignOptions struct {
	app         string
	class       string
	procs       int
	trials      int
	errors      int
	seed        uint64
	region      string
	tol         float64
	workers     int
	json        bool
	budget      time.Duration
	maxAbnormal int
	retries     int
	checkpoint  string
	resume      bool
}

// doCampaign runs a single fully-configurable fault injection deployment —
// the CLI surface over faultsim.Campaign.
func doCampaign(ctx context.Context, args []string, out, errw io.Writer) error {
	fs := flag.NewFlagSet("campaign", flag.ContinueOnError)
	fs.SetOutput(errw)
	var o campaignOptions
	var tf telFlags
	tf.register(fs)
	fs.StringVar(&o.app, "app", "CG", "benchmark")
	fs.StringVar(&o.class, "class", "", "problem class (default: app default)")
	fs.IntVar(&o.procs, "procs", 8, "rank count")
	fs.IntVar(&o.trials, "trials", 400, "fault injection tests")
	fs.IntVar(&o.errors, "errors", 1, "simultaneous errors per test")
	fs.Uint64Var(&o.seed, "seed", 1, "seed")
	fs.StringVar(&o.region, "region", "any", "injection region: any, common, unique")
	fs.Float64Var(&o.tol, "contamination-tol", 0, "contamination tolerance (0 = default, <0 = bit-exact)")
	fs.IntVar(&o.workers, "workers", 0, "trial concurrency")
	fs.BoolVar(&o.json, "json", false, "emit JSON")
	fs.DurationVar(&o.budget, "budget", 0, "campaign wall-clock budget (0 = none)")
	fs.IntVar(&o.maxAbnormal, "max-abnormal", 0, "abnormal (harness-error) trials tolerated before failing")
	fs.IntVar(&o.retries, "retries", 0, "retries per abnormal trial (0 = default, <0 = none)")
	fs.StringVar(&o.checkpoint, "checkpoint", "", "periodic JSON snapshot file (enables resumability)")
	fs.BoolVar(&o.resume, "resume", false, "resume from -checkpoint if it exists")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if o.resume && o.checkpoint == "" {
		return fmt.Errorf("-resume requires -checkpoint")
	}

	app, err := apps.Lookup(o.app)
	if err != nil {
		return err
	}
	c := faultsim.Campaign{
		App: app, Class: o.class, Procs: o.procs, Trials: o.trials,
		Errors: o.errors, Seed: o.seed, Workers: o.workers,
		ContaminationTol: o.tol,
		Budget:           o.budget, MaxAbnormal: o.maxAbnormal, AbnormalRetries: o.retries,
		Checkpoint: o.checkpoint, Resume: o.resume,
	}
	switch strings.ToLower(o.region) {
	case "", "any":
		c.Region = faultsim.AnyRegion
	case "common":
		c.Region = faultsim.CommonOnly
	case "unique":
		c.Region = faultsim.UniqueOnly
	default:
		return fmt.Errorf("unknown region %q", o.region)
	}

	rt := tf.setup(errw)
	tctx, root := rt.context(ctx, "resmod campaign")
	start := time.Now()
	sum, err := faultsim.RunCtx(tctx, c)
	root.End()
	if ferr := rt.finish(errw); ferr != nil && err == nil {
		err = ferr
	}
	if err != nil {
		return err
	}
	if o.json {
		type result struct {
			Rates        any
			CI95         stats.RateIntervals
			Hist         []uint64
			UniqueFrac   float64
			AvgFired     float64
			Elapsed      time.Duration
			CommMessages uint64
			TrialsDone   uint64
			Abnormal     uint64
			Interrupted  bool
		}
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(result{
			Rates: sum.Rates, CI95: sum.Rates.Intervals95(), Hist: sum.Hist.Counts,
			UniqueFrac: sum.Golden.UniqueFraction(), AvgFired: sum.AvgFired,
			Elapsed: sum.Elapsed, CommMessages: sum.Golden.Comm.Messages,
			TrialsDone: sum.TrialsDone, Abnormal: sum.Abnormal,
			Interrupted: sum.Interrupted,
		})
	}
	fmt.Fprintf(out, "deployment: %s/%s procs=%d trials=%d errors=%d region=%s\n",
		app.Name(), sum.Golden.Class, o.procs, o.trials, o.errors, o.region)
	if sum.Interrupted {
		fmt.Fprintf(out, "INTERRUPTED: %d/%d trials completed; partial results below\n",
			sum.TrialsDone, o.trials)
		if o.checkpoint != "" {
			fmt.Fprintf(out, "checkpoint saved to %s — re-run with -resume to continue\n",
				o.checkpoint)
		}
	}
	if sum.Abnormal > 0 {
		fmt.Fprintf(out, "abnormal trials: %d (excluded from rates; confidence degraded)\n",
			sum.Abnormal)
	}
	fmt.Fprintf(out, "result: %s\n", sum.Rates)
	iv := sum.Rates.Intervals95()
	fmt.Fprintln(out, "convergence (Wilson 95% CI):")
	for _, row := range []struct {
		name string
		iv   stats.Interval
	}{
		{"success", iv.Success}, {"sdc", iv.SDC}, {"failure", iv.Failure},
	} {
		fmt.Fprintf(out, "  %-8s %5.1f%% - %5.1f%%  (width %.2f pp)\n",
			row.name, 100*row.iv.Lo, 100*row.iv.Hi, 100*row.iv.Width())
	}
	fmt.Fprintln(out, "propagation histogram (non-zero bins):")
	probs := sum.Hist.Probabilities()
	for x, p := range probs {
		if p == 0 {
			continue
		}
		fmt.Fprintf(out, "  %3d rank(s): %5.1f%%\n", x+1, 100*p)
	}
	if o.procs > 1 {
		fmt.Fprintln(out, "contamination by ring distance from the injected rank:")
		for d, cnt := range sum.SpreadByDistance {
			if cnt == 0 {
				continue
			}
			fmt.Fprintf(out, "  distance %d: %d rank-hits\n", d, cnt)
		}
	}
	fmt.Fprintf(out, "avg injections fired per test: %.2f\n", sum.AvgFired)
	fmt.Fprintf(out, "elapsed: %v\n", time.Since(start).Round(time.Millisecond))
	return nil
}
