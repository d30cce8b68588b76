package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// perLayer reduces a traced run to the per-layer metrics that come from
// its passes (the probes have already filled theirs in).  Timings and
// counts are per pass, so they do not depend on how many passes fitted
// into the run: a layer observation is the median over the traced passes,
// which for an exact count is the count itself.
func perLayer(res *runResult, tel *benchTel, plain, traced []passResult) {
	m := res.Metrics
	keys := map[string]bool{}
	for _, p := range traced {
		for k := range p.layer {
			keys[k] = true
		}
	}
	for k := range keys {
		vals := make([]float64, len(traced))
		for i, p := range traced {
			vals[i] = p.layer[k]
		}
		m[k] = median(vals)
		if def, ok := metricByName(k); ok && def.exact && percentile(vals, 0) != percentile(vals, 1) {
			res.Correct = false
			res.Notes = append(res.Notes, fmt.Sprintf("%s differs between passes of one run: %v", k, vals))
		}
	}

	n := float64(len(traced))
	snap := tel.recorder.Snapshot()
	m["faultsim.golden_s"] = snap.GoldenSeconds / n
	if snap.TrialsTotal() > 0 { // the engine ran in this process, under this recorder
		m["faultsim.abnormal_trials"] = float64(snap.TrialsAbnormal) / n
		m["faultsim.retried_trials"] = float64(snap.TrialsRetried) / n
	}

	traceMetrics(tel, m)
	for k := range m {
		if strings.HasPrefix(k, "trace.") || k == "telemetry.spans_recorded" {
			m[k] /= n
		}
	}
	m["telemetry.tracing_overhead_frac"] = median(walls(traced))/median(walls(plain)) - 1
	var cpu, wall time.Duration
	for _, p := range plain {
		cpu += p.cpu
		wall += p.wall
	}
	m["exper.cpu_s"] = cpu.Seconds() / float64(len(plain))
	m["exper.cpu_util"] = cpu.Seconds() / (wall.Seconds() * float64(runtime.GOMAXPROCS(0)))
}

func walls(passes []passResult) []float64 {
	out := make([]float64, len(passes))
	for i, p := range passes {
		out[i] = p.wall.Seconds()
	}
	return out
}

func metricByName(name string) (metricDef, bool) {
	for _, list := range [][]metricDef{endToEndMetrics, perLayerMetrics} {
		for _, d := range list {
			if d.name == name {
				return d, true
			}
		}
	}
	return metricDef{}, false
}

// oneThreadPasses is how many passes the one-thread child runs; it
// reports their median.
const oneThreadPasses = 3

// speedupVsOneThread measures what the scheduler's concurrency buys on an
// engine workload: the median wall time of the same pass with one trial
// worker, one campaign slot and GOMAXPROCS=1 — in a child process, the
// only place the harness changes GOMAXPROCS — over this run's median
// untraced pass.  The serve workloads, and one-core hosts, report 0.
func speedupVsOneThread(ctx context.Context, rc runConfig, w workloadDef, wall float64, m map[string]float64) error {
	if !w.engine || runtime.NumCPU() < 2 {
		return nil
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	args := []string{"--workload", rc.workload, "--seed", strconv.FormatUint(rc.seed, 10), "--one-thread-child"}
	if rc.quick {
		args = append(args, "--quick")
	}
	cmd := exec.CommandContext(ctx, self, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS=1")
	cmd.Stderr = stderr
	out, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("one-thread child: %w", err)
	}
	one, err := strconv.ParseFloat(strings.TrimSpace(string(out)), 64)
	if err != nil {
		return fmt.Errorf("one-thread child printed %q: %w", out, err)
	}
	m["exper.one_thread_wall_s"] = one
	m["exper.speedup_vs_1thread"] = one / wall
	return nil
}

// oneThreadChild is the child side: set up, run the workload's pass with
// one worker and one campaign slot, print the median wall time in seconds.
func oneThreadChild(ctx context.Context, rc runConfig, stdout io.Writer) int {
	w, ok := workloadByName(rc.workload)
	if !ok || !w.engine {
		return 2
	}
	rc.oneThread = true
	if err := os.MkdirAll(rc.outDir, 0o755); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	inst := w.build(rc)
	defer inst.Close()
	if err := inst.Setup(ctx); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	var passes []passResult
	for i := 0; i < oneThreadPasses; i++ {
		p, err := inst.Pass(ctx, nil, rc.passSeed(i))
		if err != nil || p.failed > 0 {
			fmt.Fprintln(stderr, "one-thread pass failed:", err)
			return 1
		}
		passes = append(passes, p)
	}
	fmt.Fprintln(stdout, median(walls(passes)))
	return 0
}

// runAll is the no-arguments mode: every (workload, mode) in a fresh child
// process, so the heap, the pools and the peak RSS of one cannot leak into
// the next.  The children print their own tables; the parent gathers their
// result files into one document.
func runAll(ctx context.Context, rc runConfig, names []string, trace, out string, stdout io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	if err := os.MkdirAll(rc.outDir, 0o755); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	modes := []string{"0", "1"}
	if trace != "both" {
		modes = []string{trace}
	}
	h := readHostFacts()
	fmt.Fprintf(stdout, "host: %d cpus (GOMAXPROCS %d), %s, %s, commit %s, seed %d\n",
		h.NProc, h.GoMaxProcs, h.CPUModel, h.GoVersion, h.Commit, rc.seed)
	var runs []*runResult
	code := 0
	for _, name := range names {
		for _, mode := range modes {
			part := fmt.Sprintf("%s/%s.%s.json", rc.outDir, name, mode)
			args := []string{"--workload", name, "--trace", mode, "--out", part,
				"--seed", strconv.FormatUint(rc.seed, 10),
				"--seconds", strconv.FormatFloat(rc.seconds, 'g', -1, 64)}
			if rc.quick {
				args = append(args, "--quick")
			}
			cmd := exec.CommandContext(ctx, self, args...)
			cmd.Stdout, cmd.Stderr = stdout, stderr
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(stderr, "benchmark: %s (trace %s): %v\n", name, mode, err)
				code = 1
			}
			var rf resultFile
			if err := readJSON(part, &rf); err != nil {
				fmt.Fprintln(stderr, err)
				code = 1
				continue
			}
			runs = append(runs, rf.Runs...)
		}
	}
	if out == "" {
		out = rc.outDir + "/results.json"
	}
	sort.SliceStable(runs, func(i, j int) bool { return runs[i].Workload < runs[j].Workload })
	if err := writeResults(out, rc, runs); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	fmt.Fprintf(stdout, "wrote %s\n", out)
	return code
}
