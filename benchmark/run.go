package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"time"

	"resmod/internal/telemetry"
)

// setupRepeats is how many times a run builds (and, except the last time,
// tears down) its workload's state; setup_s is the median, so one slow
// start cannot move it.
const setupRepeats = 5

// runConfig is one driver-mode run: a single workload in a single mode.
type runConfig struct {
	workload string
	seed     uint64
	seconds  float64
	traced   bool
	quick    bool
	// oneThread is set in the exper.speedup_vs_1thread child alone: the
	// engine runs with one trial worker and one campaign slot.
	oneThread bool
	// outDir holds everything the run writes (temp stores, trace files);
	// it lives under the benchmark's own directory so a run reads and
	// writes only inside its checkout.
	outDir string
}

// scale shrinks a frozen count for -quick smoke runs (never below 1).
func (rc runConfig) scale(n int) int {
	if !rc.quick {
		return n
	}
	if n /= quickDivisor; n < 1 {
		n = 1
	}
	return n
}

// scheduler returns the knobs the engine workloads run under: the
// program's defaults, except in the one-thread child.
func (rc runConfig) scheduler() engineOpts {
	if rc.oneThread {
		return engineOpts{workers: 1, campaignParallel: 1}
	}
	return engineOpts{}
}

// passSeed is the seed of a run's k-th pass: the k-th value of a splitmix
// stream started at --seed.  What a fault-injection trial costs depends on
// what the injected fault does, so the work in a pass of a few hundred
// trials varies by several percent with its seed; a run whose passes each
// draw their own seed reports the median over many such inputs, not the
// luck of one.  The k-th untraced and the k-th traced pass share a seed.
func (rc runConfig) passSeed(k int) uint64 {
	stream := splitmix(rc.seed)
	for ; k > 0; k-- {
		stream.next()
	}
	return stream.next()
}

// quickDivisor is the -quick shrink factor of every count.
const quickDivisor = 50

// passResult is one execution of a workload's fixed unit of work.
type passResult struct {
	// wall is the timed section.
	wall time.Duration
	// ops counts the workload's operations completed in the pass:
	// fault-injection trials, HTTP requests, or prediction jobs.
	ops int
	// calls holds the latency of each client-visible call the pass made
	// (PredictAll, Campaign, one HTTP request, one job POST→terminal).
	calls []time.Duration
	// cpu is the process CPU time the timed section used.
	cpu time.Duration
	// failed counts calls whose output check failed.
	failed int
	// digest is the sha256 of the pass's deterministic outputs ("" where
	// the workload's outputs are checked against set-up instead).
	digest string
	// layer carries the pass's per-layer observations (campaign class
	// sums, client-side endpoint latencies, exact counts).
	layer map[string]float64
}

// instance is one built workload: Setup makes it ready (warm), Pass runs
// the fixed work once on the inputs generated from seed, Close releases
// every listener, worker, server and temp dir.  tel is nil for an
// untraced pass.
type instance interface {
	Setup(ctx context.Context) error
	Pass(ctx context.Context, tel *benchTel, seed uint64) (passResult, error)
	Close()
}

// benchTel is the traced run's telemetry: the program's existing Tracer
// and Recorder, handed in through its public configuration, plus the
// benchmark's own boundary spans recorded into the same tracer.
type benchTel struct {
	tracer   *telemetry.Tracer
	recorder *telemetry.Recorder
}

func newBenchTel() *benchTel {
	return &benchTel{tracer: telemetry.NewTracer(), recorder: telemetry.NewRecorder()}
}

// bundle is the telemetry value the program reads off its context (nil
// receiver: telemetry off).
func (t *benchTel) bundle() *telemetry.Telemetry {
	if t == nil {
		return nil
	}
	return telemetry.New(nil, t.tracer, t.recorder)
}

// span opens one of the benchmark's own boundary spans around a call into
// a layer; on an untraced pass it is free and returns ctx unchanged.
func (t *benchTel) span(ctx context.Context, name string, attrs ...telemetry.Attr) (context.Context, *telemetry.Span) {
	if t == nil {
		return ctx, nil
	}
	return t.tracer.Start(telemetry.With(ctx, t.bundle()), name, attrs...)
}

// runResult is everything one driver-mode run measured.
type runResult struct {
	Workload  string  `json:"workload"`
	Traced    bool    `json:"traced"`
	Seed      uint64  `json:"seed"`
	Seconds   float64 `json:"seconds"`
	Quick     bool    `json:"quick,omitempty"`
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Passes    int     `json:"passes"`
	Samples   int     `json:"latency_samples"`
	// PassWalls and PassCPUs are the wall and process-CPU seconds of each
	// untraced pass in order, so drift inside a run can be told from
	// drift between runs.
	PassWalls []float64          `json:"pass_wall_s"`
	PassCPUs  []float64          `json:"pass_cpu_s"`
	Digest    string             `json:"result_digest,omitempty"`
	Metrics   map[string]float64 `json:"metrics"`
	Notes     []string           `json:"notes,omitempty"`
}

// benchDir finds the benchmark's own directory — the one holding its
// go.mod — from the working directory: that directory itself or one above
// it (`go run -C benchmark`, `go test`), or ./benchmark when the built
// program is started from the repository root.
func benchDir() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	if _, err := os.Stat(filepath.Join(dir, "benchmark", "go.mod")); err == nil {
		return filepath.Join(dir, "benchmark"), nil
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("benchmark: no go.mod at or above the working directory; run from the repository")
		}
		dir = parent
	}
}

// runWorkload executes one driver-mode run: repeated set-up, then passes
// of the workload's fixed work, each on its own seeded inputs, until
// rc.seconds of timed work are done.
// A traced run first runs the layer probes, then alternates untraced and
// traced passes so the tracing overhead is a ratio taken inside one
// process; its timings never feed an end-to-end metric.
func runWorkload(ctx context.Context, rc runConfig) (*runResult, error) {
	w, ok := workloadByName(rc.workload)
	if !ok {
		return nil, fmt.Errorf("benchmark: unknown workload %q (have %v)", rc.workload, workloadNames())
	}
	if err := os.MkdirAll(rc.outDir, 0o755); err != nil {
		return nil, err
	}
	res := &runResult{Workload: rc.workload, Traced: rc.traced, Seed: rc.seed,
		Seconds: rc.seconds, Quick: rc.quick, Metrics: map[string]float64{}}

	var inst instance
	var setups []float64
	for i := 0; i < rc.scale(setupRepeats); i++ {
		if inst != nil {
			inst.Close()
			// Set-up is repeated only to steady setup_s.  Returning the
			// previous repeat's heap keeps peak_rss_mb that of a process
			// that set up once, not of whatever five set-ups' garbage
			// happened to add up to before a collection.
			debug.FreeOSMemory()
		}
		inst = w.build(rc)
		start := time.Now()
		if err := inst.Setup(ctx); err != nil {
			inst.Close()
			return nil, fmt.Errorf("benchmark: %s set-up: %w", rc.workload, err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer inst.Close()

	var tel *benchTel
	if rc.traced {
		tel = newBenchTel()
		if err := runProbes(ctx, rc, res.Metrics); err != nil {
			return nil, fmt.Errorf("benchmark: layer probes: %w", err)
		}
	}

	var (
		plain, traced []passResult
		timed         time.Duration
		budget        = time.Duration(rc.seconds * float64(time.Second))
	)
	for timed < budget || len(plain) == 0 || (rc.traced && len(traced) == 0) {
		var pt *benchTel
		k := len(plain)
		if rc.traced && len(traced) < len(plain) {
			pt, k = tel, len(traced)
		}
		p, err := inst.Pass(ctx, pt, rc.passSeed(k))
		if err != nil {
			return nil, fmt.Errorf("benchmark: %s pass %d: %w", rc.workload, len(plain)+len(traced), err)
		}
		timed += p.wall
		if pt != nil {
			traced = append(traced, p)
		} else {
			plain = append(plain, p)
		}
	}
	// Read before the reduction below allocates its sorted copies of every
	// latency sample: the peak is the workload's, not the harness's.
	peakRSS := peakRSSMB()
	all := append(append([]passResult(nil), plain...), traced...)
	res.Correct = true
	res.Digest = plain[0].digest
	for _, p := range all {
		res.Attempted += len(p.calls)
		res.Failed += p.failed
	}
	// A traced pass runs the inputs of the untraced pass before it, so it
	// must produce the same outputs.
	for k, p := range traced {
		if p.digest != plain[k].digest {
			res.Correct = false
			res.Notes = append(res.Notes, fmt.Sprintf("result_digest of traced pass %d differs from the untraced pass on the same inputs", k))
		}
	}
	if res.Failed > 0 {
		res.Correct = false
	}
	res.Passes = len(all)
	for _, p := range plain {
		res.Samples += len(p.calls)
		res.PassWalls = append(res.PassWalls, p.wall.Seconds())
		res.PassCPUs = append(res.PassCPUs, p.cpu.Seconds())
	}

	if !rc.traced {
		endToEnd(res, plain, setups)
		res.Metrics["peak_rss_mb"] = peakRSS
		return res, nil
	}
	perLayer(res, tel, plain, traced)
	if err := writeTrace(rc, tel); err != nil {
		return nil, err
	}
	if err := speedupVsOneThread(ctx, rc, w, median(walls(plain)), res.Metrics); err != nil {
		return nil, err
	}
	return res, nil
}

// endToEnd reduces the untraced passes to the end-to-end metrics: medians
// over the passes, and the exact median over every call's latency.
func endToEnd(res *runResult, passes []passResult, setups []float64) {
	var walls, rates, calls []float64
	for _, p := range passes {
		walls = append(walls, p.wall.Seconds())
		rates = append(rates, float64(p.ops)/p.wall.Seconds())
		for _, c := range p.calls {
			calls = append(calls, float64(c)/float64(time.Millisecond))
		}
	}
	res.Metrics["setup_s"] = median(setups)
	res.Metrics["wall_s"] = median(walls)
	res.Metrics["ops_per_s"] = median(rates)
	res.Metrics["latency_p50_ms"] = median(calls)
}
