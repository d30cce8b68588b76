// Command resmod runs the resilience-modeling experiments that regenerate
// the tables and figures of "Modeling Application Resilience in
// Large-scale Parallel Execution" (ICPP 2018) on resmod's simulated
// substrate.
//
// Usage:
//
//	resmod <experiment> [flags]
//
// Experiments:
//
//	apps      list the registered benchmark applications
//	table1    parallel-unique computation fractions
//	table2    propagation cosine similarity (4V64, 8V64)
//	fig1      CG propagation histograms (8 vs 64 ranks)
//	fig2      FT propagation histograms (8 vs 64 ranks)
//	fig3      serial-vs-parallel resilience characterization (8 ranks)
//	fig5      prediction for 64 ranks from serial + 4 ranks
//	fig6      prediction for 64 ranks from serial + 8 ranks
//	fig7      prediction for 128 ranks (CG, FT)
//	fig8      accuracy/cost sweep over small-scale sizes 4..32
//	overhead  instruction-count growth from serial to 4 ranks (§1)
//	predict   one custom prediction: -app, -small, -large
//	all       every experiment above, in order
//	serve     long-running prediction service (HTTP JSON API + /metrics);
//	          -coordinator shards campaigns across registered workers
//	worker    distributed execution node: registers with a coordinator and
//	          executes dispatched trial-range shards
//	loadgen   load-generation harness for a running serve instance
//	top       live terminal dashboard for a running serve instance
//	          (status, alerts, sparklines, fleet)
//
// Common flags: -trials, -seed, -apps, -workers, and the observability
// trio every subcommand shares: -quiet (warnings only), -v (debug),
// -trace FILE (Chrome trace-event JSON of the run's spans).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"resmod/internal/apps"
	"resmod/internal/exper"

	_ "resmod/internal/apps/cg"
	_ "resmod/internal/apps/cg2d"
	_ "resmod/internal/apps/ep"
	_ "resmod/internal/apps/ft"
	_ "resmod/internal/apps/lu"
	_ "resmod/internal/apps/mg"
	_ "resmod/internal/apps/minife"
	_ "resmod/internal/apps/pennant"
	_ "resmod/internal/apps/sp"
)

func main() {
	// First SIGINT/SIGTERM cancels the context: campaigns stop promptly,
	// flush their checkpoints, and report partial progress.  A second
	// signal kills the process (signal.NotifyContext restores default
	// handling once the context is canceled).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "resmod:", err)
		os.Exit(1)
	}
}

type options struct {
	trials           int
	seed             uint64
	apps             string
	quiet            bool
	workers          int
	campaignParallel int
	app              string
	class            string
	small            int
	large            int
	json             bool
	budget           time.Duration
}

// emit renders v as JSON when -json is set and returns true.
func (o options) emit(out io.Writer, v any) bool {
	if !o.json {
		return false
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		fmt.Fprintln(out, "{}")
	}
	return true
}

func run(ctx context.Context, args []string, out, errw io.Writer) error {
	if len(args) == 0 {
		usage(errw)
		return fmt.Errorf("an experiment name is required")
	}
	cmd := args[0]
	if cmd == "campaign" {
		return doCampaign(ctx, args[1:], out, errw)
	}
	if cmd == "serve" {
		return doServe(ctx, args[1:], out, errw)
	}
	if cmd == "loadgen" {
		return doLoadgen(ctx, args[1:], out, errw)
	}
	if cmd == "worker" {
		return doWorker(ctx, args[1:], out, errw)
	}
	if cmd == "top" {
		return doTop(ctx, args[1:], out, errw)
	}
	fs := flag.NewFlagSet(cmd, flag.ContinueOnError)
	fs.SetOutput(errw)
	var o options
	var tf telFlags
	tf.register(fs)
	fs.IntVar(&o.trials, "trials", 400, "fault injection tests per deployment (paper: 4000)")
	fs.Uint64Var(&o.seed, "seed", 2018, "campaign seed")
	fs.StringVar(&o.apps, "apps", "", "comma-separated benchmark subset (default: all)")
	fs.IntVar(&o.workers, "workers", 0, "trial-level concurrency (default GOMAXPROCS)")
	fs.IntVar(&o.campaignParallel, "campaign-parallel", 0,
		"concurrent campaigns (default GOMAXPROCS; 1 = sequential)")
	fs.StringVar(&o.app, "app", "CG", "benchmark for the predict experiment")
	fs.StringVar(&o.class, "class", "", "problem class (default: app default)")
	fs.IntVar(&o.small, "small", 8, "small-scale rank count for predict")
	fs.IntVar(&o.large, "large", 64, "large-scale rank count for predict")
	fs.BoolVar(&o.json, "json", false, "emit machine-readable JSON instead of tables")
	fs.DurationVar(&o.budget, "budget", 0, "per-campaign wall-clock budget (0 = none)")
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}
	o.quiet = tf.quiet

	rt := tf.setup(errw)
	tctx, root := rt.context(ctx, "resmod "+cmd)
	s := exper.NewSession(exper.Config{
		Trials: o.trials, Seed: o.seed, Workers: o.workers,
		CampaignParallel: o.campaignParallel,
		Ctx:              tctx, Budget: o.budget,
	})
	names := splitApps(o.apps)

	start := time.Now()
	var err error
	switch cmd {
	case "apps":
		err = listApps(out)
	case "table1":
		err = doTable1(s, out, o)
	case "table2":
		err = doTable2(s, out, names, o)
	case "fig1":
		err = doPropagation(s, out, "CG")
	case "fig2":
		err = doPropagation(s, out, "FT")
	case "fig3":
		err = doFig3(s, out, names)
	case "fig5":
		err = doPredict(s, out, names, 4, 64, o)
	case "fig6":
		err = doPredict(s, out, names, 8, 64, o)
	case "fig7":
		err = doFig7(s, out)
	case "fig8":
		err = doFig8(s, out, names, o)
	case "overhead":
		err = doOverhead(s, out)
	case "predict":
		err = doPredictOne(s, out, o)
	case "all":
		err = doAll(s, out, names)
	case "report":
		err = exper.Report(s, out)
	case "ablate":
		err = doAblate(o, out)
	case "baselines":
		err = doBaselines(s, out, names, o)
	case "modelablate":
		err = doModelAblate(s, out, o)
	case "scalesweep":
		err = doScaleSweep(s, out, o)
	case "advise":
		err = doAdvise(o, out)
	case "trace":
		err = doTrace(o, out)
	case "stability":
		err = doStability(s, o, out)
	default:
		usage(errw)
		return fmt.Errorf("unknown experiment %q", cmd)
	}
	root.End()
	if ferr := rt.finish(errw); ferr != nil && err == nil {
		err = ferr
	}
	if err != nil {
		return err
	}
	if !o.quiet {
		fmt.Fprintf(errw, "[%s done in %v]\n", cmd, time.Since(start).Round(time.Millisecond))
	}
	return nil
}

func usage(w io.Writer) {
	fmt.Fprintln(w, `usage: resmod <experiment> [flags]
experiments: apps table1 table2 fig1 fig2 fig3 fig5 fig6 fig7 fig8 overhead predict all report
extras:      campaign ablate trace stability baselines modelablate scalesweep advise
             (use -app, -class, -small, -large)
service:     serve -listen HOST:PORT -store DIR -workers N -queue N -drain D
             -pprof-addr HOST:PORT (optional net/http/pprof listener)
             -api-keys KEY:TENANT,... or -api-keys-file FILE (tenancy)
             -tenant-rate/-tenant-burst/-tenant-inflight (keyed limits)
             -anon-rate/-anon-burst/-anon-inflight (anonymous-tier limits)
             -coordinator (shard campaigns across registered workers)
             -heartbeat-timeout D -shards-per-worker N (coordinator tuning)
             -sample-every D (telemetry retention/alerting cadence)
worker:      worker -coordinator URL -listen HOST:PORT -advertise URL
             -name NAME -campaign-workers N -heartbeat D
             -pprof-addr HOST:PORT (optional net/http/pprof listener;
             shard endpoint also serves GET /metrics)
loadgen:     loadgen -target URL -clients N -duration D -mix predict=60,get=25,...
             -keys KEY,... -priorities normal=80,... -retries N -out FILE
             -fail-on-5xx (non-zero exit on any 5xx other than a drain 503)
top:         top -target URL -interval D -once (live dashboard: status,
             alerts, series sparklines, fleet; also see GET /debug/dash)
flags: -trials N -seed N -apps CG,FT,... -workers N -campaign-parallel N -budget D
       -quiet (warnings only) -v (debug) -trace FILE (Chrome trace JSON)
       (predict only) -app NAME -class C -small S -large P
       (campaign only) -checkpoint FILE -resume -max-abnormal N -retries N
SIGINT/SIGTERM stops campaigns promptly, preserving partial results
(and the checkpoint, when one is configured).`)
}

func splitApps(s string) []string {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	out := parts[:0]
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func listApps(out io.Writer) error {
	for _, name := range apps.Names() {
		a, err := apps.Lookup(name)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "%-10s classes=%v default=%s maxprocs=%d\n",
			a.Name(), a.Classes(), a.DefaultClass(), a.MaxProcs(a.DefaultClass()))
	}
	return nil
}

func doTable1(s *exper.Session, out io.Writer, o options) error {
	rows, err := exper.Table1(s)
	if err != nil {
		return err
	}
	if o.emit(out, rows) {
		return nil
	}
	fmt.Fprintln(out, "== Table 1: percentage of parallel-unique computation (4 ranks) ==")
	exper.RenderTable1(out, rows)
	return nil
}

func doTable2(s *exper.Session, out io.Writer, names []string, o options) error {
	rows, err := exper.Table2(s, names)
	if err != nil {
		return err
	}
	if o.emit(out, rows) {
		return nil
	}
	fmt.Fprintln(out, "== Table 2: propagation cosine similarity ==")
	exper.RenderTable2(out, rows)
	return nil
}

func doPropagation(s *exper.Session, out io.Writer, app string) error {
	r, err := exper.Propagation(s, app, 8, 64)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "== Figure %s: %s propagation profiles ==\n", map[string]string{
		"CG": "1", "FT": "2"}[app], app)
	exper.RenderPropagation(out, r)
	return nil
}

func doFig3(s *exper.Session, out io.Writer, names []string) error {
	if len(names) == 0 {
		names = exper.PaperBenchmarks
	}
	fmt.Fprintln(out, "== Figure 3: serial x errors vs parallel x contaminated (8 ranks) ==")
	for _, n := range names {
		r, err := exper.Fig3(s, n, 8)
		if err != nil {
			return err
		}
		exper.RenderFig3(out, r)
	}
	return nil
}

func doPredict(s *exper.Session, out io.Writer, names []string, small, large int, o options) error {
	rows, err := exper.PredictAll(s, names, small, large)
	if err != nil {
		return err
	}
	if o.emit(out, rows) {
		return nil
	}
	fig := "5"
	if small == 8 {
		fig = "6"
	}
	fmt.Fprintf(out, "== Figure %s: modeling accuracy ==\n", fig)
	exper.RenderPredictions(out, rows)
	return nil
}

func doFig7(s *exper.Session, out io.Writer) error {
	fmt.Fprintln(out, "== Figure 7: modeling accuracy for 128 ranks (CG, FT) ==")
	// FT's class S transpose supports up to 64 ranks; class B covers 128
	// (see DESIGN.md).
	configs := []struct {
		app, class string
		small      int
	}{
		{"CG", "S", 4}, {"CG", "S", 8},
		{"FT", "B", 4}, {"FT", "B", 8},
	}
	var rows []exper.PredictionRow
	for _, c := range configs {
		row, err := exper.PredictOne(s, c.app, c.class, c.small, 128)
		if err != nil {
			return err
		}
		rows = append(rows, *row)
	}
	exper.RenderPredictions(out, rows)
	return nil
}

func doFig8(s *exper.Session, out io.Writer, names []string, o options) error {
	points, err := exper.Fig8(s, names, []int{4, 8, 16, 32}, 64)
	if err != nil {
		return err
	}
	if o.emit(out, points) {
		return nil
	}
	fmt.Fprintln(out, "== Figure 8: accuracy vs fault-injection time ==")
	exper.RenderFig8(out, points)
	return nil
}

func doOverhead(s *exper.Session, out io.Writer) error {
	cg, err := apps.Lookup("CG")
	if err != nil {
		return err
	}
	ser, err := s.Golden(cg, "S", 1)
	if err != nil {
		return err
	}
	par, err := s.Golden(cg, "S", 4)
	if err != nil {
		return err
	}
	serOps := ser.TotalCounts().Total()
	parOps := par.TotalCounts().Total()
	fmt.Fprintln(out, "== §1 anecdote: CG instruction growth, serial -> 4 ranks ==")
	fmt.Fprintf(out, "serial ops:   %d\n", serOps)
	fmt.Fprintf(out, "4-rank ops:   %d (+%.1f%%)\n", parOps,
		100*(float64(parOps)/float64(serOps)-1))
	fmt.Fprintf(out, "serial time:  %v\n", ser.Elapsed.Round(time.Microsecond))
	fmt.Fprintf(out, "4-rank time:  %v (+%.1f%%)\n", par.Elapsed.Round(time.Microsecond),
		100*(float64(par.Elapsed)/float64(ser.Elapsed)-1))
	return nil
}

func doPredictOne(s *exper.Session, out io.Writer, o options) error {
	row, err := exper.PredictOne(s, o.app, o.class, o.small, o.large)
	if err != nil {
		return err
	}
	exper.RenderPredictions(out, []exper.PredictionRow{*row})
	return nil
}

func doAll(s *exper.Session, out io.Writer, names []string) error {
	steps := []func() error{
		func() error { return doOverhead(s, out) },
		func() error { return doTable1(s, out, options{}) },
		func() error { return doTable2(s, out, names, options{}) },
		func() error { return doPropagation(s, out, "CG") },
		func() error { return doPropagation(s, out, "FT") },
		func() error { return doFig3(s, out, names) },
		func() error { return doPredict(s, out, names, 4, 64, options{}) },
		func() error { return doPredict(s, out, names, 8, 64, options{}) },
		func() error { return doFig7(s, out) },
		func() error { return doFig8(s, out, names, options{}) },
	}
	for _, step := range steps {
		if err := step(); err != nil {
			return err
		}
		fmt.Fprintln(out)
	}
	return nil
}
