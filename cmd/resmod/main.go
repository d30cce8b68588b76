// Command resmod runs the resilience-modeling experiments that regenerate
// the tables and figures of "Modeling Application Resilience in
// Large-scale Parallel Execution" (ICPP 2018) on resmod's simulated
// substrate.
//
// Usage:
//
//	resmod <experiment> [flags]
//
// The experiments — the paper's §1 anecdote, Tables 1–2 and Figures 1–3
// and 5–8, one custom prediction and the studies beyond the paper — are
// the rows of exper.Plan (internal/exper/plan.go); `resmod` with no
// arguments lists their names.  Beside them:
//
//	apps      list the registered benchmark applications
//	all       the paper's rows, in order (console form)
//	report    the paper's rows, then the extensions, as markdown: the whole
//	          of EXPERIMENTS.md
//	campaign  one fault injection deployment, with checkpoint/resume
//	serve     long-running prediction service (HTTP JSON API + /metrics);
//	          -coordinator shards campaigns across registered workers
//	worker    distributed execution node: registers with a coordinator and
//	          executes dispatched trial-range shards
//	loadgen   load-generation harness for a running serve instance
//	top       live terminal dashboard for a running serve instance
//	          (status, alerts, sparklines, fleet)
//
// Common flags: -trials, -seed, -apps, -workers, -json (the experiment's
// result value instead of its table), and the observability trio every
// subcommand shares: -quiet (warnings only), -v (debug), -trace FILE
// (Chrome trace-event JSON of the run's spans).
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
	_ "resmod/internal/apps/ft"
	_ "resmod/internal/apps/lu"
	_ "resmod/internal/apps/mg"
	_ "resmod/internal/apps/minife"
	_ "resmod/internal/apps/pennant"
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
	if _, isRow := exper.Lookup(cmd); !isRow && views[cmd] == nil {
		usage(errw)
		return fmt.Errorf("unknown experiment %q", cmd)
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
	p := exper.Params{
		Apps: splitApps(o.apps), App: o.app, Class: o.class,
		Small: o.small, Large: o.large,
	}

	start := time.Now()
	err := dispatch(s, cmd, p, o.json, out)
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

// dispatch runs cmd — a plan row, or a view of the plan — on the session:
// a row's value is rendered, or encoded when -json asks; a view has no
// single value to encode and says so rather than ignore the flag.
func dispatch(s *exper.Session, cmd string, p exper.Params, asJSON bool, out io.Writer) error {
	row, isRow := exper.Lookup(cmd)
	switch {
	case !isRow && asJSON:
		return fmt.Errorf("-json is not supported by %q: it encodes one experiment's result", cmd)
	case !isRow:
		return views[cmd](s, p, out)
	}
	v, err := row.Run(s, p)
	if err != nil {
		return err
	}
	if asJSON {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(v)
	}
	row.Print(out, v)
	return nil
}

// views are the subcommands that present the plan rather than run one row
// of it.
var views = map[string]func(s *exper.Session, p exper.Params, out io.Writer) error{
	"apps": func(_ *exper.Session, _ exper.Params, out io.Writer) error { return listApps(out) },
	// all: the paper's rows, in order, console form.
	"all": func(s *exper.Session, p exper.Params, out io.Writer) error {
		for _, e := range exper.Plan {
			if !e.Paper {
				continue
			}
			v, err := e.Run(s, p)
			if err != nil {
				return err
			}
			e.Print(out, v)
			fmt.Fprintln(out)
		}
		return nil
	},
	// report: every row with a report heading, as markdown.
	"report": func(s *exper.Session, p exper.Params, out io.Writer) error {
		return exper.Report(s, out, p)
	},
}

func usage(w io.Writer) {
	var paper, extras []string
	for _, e := range exper.Plan {
		if e.Paper {
			paper = append(paper, e.Name)
		} else {
			extras = append(extras, e.Name)
		}
	}
	fmt.Fprintf(w, `usage: resmod <experiment> [flags]
experiments: apps %s all report
extras:      campaign %s
             (use -app, -class, -small, -large)
`, strings.Join(paper, " "), strings.Join(extras, " "))
	fmt.Fprintln(w, `service:     serve -listen HOST:PORT -store DIR -workers N -queue N -drain D
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
             alerts, series sparklines, fleet)
flags: -trials N -seed N -apps CG,FT,... -workers N -campaign-parallel N -budget D
       -json (an experiment's result value instead of its table)
       -quiet (warnings only) -v (debug) -trace FILE (Chrome trace JSON)
       (predict and the extras) -app NAME -class C -small S -large P
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
