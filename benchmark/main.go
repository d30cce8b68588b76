// Command benchmark is resmod's performance harness: five named
// workloads, end-to-end metrics measured with telemetry off, and a traced
// run that attributes time to each layer.  BENCHMARK.json at the
// repository root declares it; README.md here says how to read it.
//
//	go run ./benchmark                         every workload, both modes, in child processes
//	go run ./benchmark --workload serve_warm --seed 7 --seconds 10 --trace 0
//	go run ./benchmark -compare A.json B.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
)

// stderr receives progress and check-failure lines; standard output is
// kept for the metric table and the closing JSON line.
var stderr io.Writer = os.Stderr

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	var (
		workload  = fs.String("workload", "", "comma-separated workloads (default: all five)")
		seed      = fs.Uint64("seed", 2018, "seed every generated input derives from")
		secs      = fs.Float64("seconds", defaultSeconds, "seconds of timed work per run")
		trace     = fs.String("trace", "both", "0 = end-to-end metrics, 1 = per-layer metrics, both")
		quick     = fs.Bool("quick", false, "divide every count by 50 (smoke only; -compare refuses the result)")
		out       = fs.String("out", "", "also write every result as JSON to this file")
		compare   = fs.Bool("compare", false, "compare result files: -compare OLD.json[,OLD2.json] NEW.json[,NEW2.json]")
		oneThread = fs.Bool("one-thread-child", false, "internal: the exper.speedup_vs_1thread child")
		describe  = fs.Bool("describe", false, "print the BENCHMARK.json this registry declares and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		return compareMain(fs.Args(), stdout)
	}
	if *trace != "0" && *trace != "1" && *trace != "both" {
		fmt.Fprintf(stderr, "benchmark: -trace %q: want 0, 1 or both\n", *trace)
		return 2
	}
	if *describe {
		b, _ := json.MarshalIndent(declaration(), "", "  ")
		fmt.Fprintf(stdout, "%s\n", b)
		return 0
	}
	dir, err := benchDir()
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	names := workloadNames()
	if *workload != "" {
		names = strings.Split(*workload, ",")
	}
	rc := runConfig{seed: *seed, seconds: *secs, quick: *quick,
		outDir: filepath.Join(dir, "out")}
	if *oneThread {
		rc.workload = names[0]
		return oneThreadChild(ctx, rc, stdout)
	}
	if len(names) == 1 && *trace != "both" {
		// Driver mode: one workload, one mode, in this process.
		rc.workload, rc.traced = names[0], *trace == "1"
		res, err := runWorkload(ctx, rc)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		printResult(stdout, res)
		if *out != "" {
			if err := writeResults(*out, rc, []*runResult{res}); err != nil {
				fmt.Fprintln(stderr, err)
				return 1
			}
		}
		if !res.Correct {
			return 1
		}
		return 0
	}
	return runAll(ctx, rc, names, *trace, *out, stdout)
}

// driverLine is the closing JSON object the driver reads.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]driverValue `json:"metrics"`
}

type driverValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printResult prints every metric of the run by name with its unit, then
// the closing JSON line: the end-to-end metrics of an untraced run, the
// per-layer metrics of a traced one.
func printResult(w io.Writer, res *runResult) {
	defs := endToEndMetrics
	mode := "end-to-end, telemetry off"
	if res.Traced {
		defs, mode = perLayerMetrics, "per-layer, traced"
	}
	wl, _ := workloadByName(res.Workload)
	fmt.Fprintf(w, "workload %s (%s) seed %d: %d passes, %d %ss checked, %d failed, %d latency samples\n",
		res.Workload, mode, res.Seed, res.Passes, res.Attempted, "call", res.Failed, res.Samples)
	fmt.Fprintf(w, "  one operation = one %s\n", wl.op)
	if res.Digest != "" {
		fmt.Fprintf(w, "  result_digest %s\n", res.Digest)
	}
	line := driverLine{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed,
		Metrics: map[string]driverValue{}}
	for _, d := range defs {
		v := res.Metrics[d.name]
		fmt.Fprintf(w, "  %-34s %14.6g %s\n", d.name, v, d.unit)
		line.Metrics[d.name] = driverValue{Value: v, Unit: d.unit}
	}
	for _, n := range res.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	b, _ := json.Marshal(line)
	fmt.Fprintf(w, "%s\n", b)
}

// resultFile is the -out document -compare reads.
type resultFile struct {
	Host    hostFacts    `json:"host"`
	Seed    uint64       `json:"seed"`
	Seconds float64      `json:"seconds"`
	Quick   bool         `json:"quick,omitempty"`
	Runs    []*runResult `json:"runs"`
}

func writeResults(path string, rc runConfig, runs []*runResult) error {
	sort.SliceStable(runs, func(i, j int) bool { return runs[i].Workload < runs[j].Workload })
	b, err := json.MarshalIndent(resultFile{Host: readHostFacts(), Seed: rc.seed,
		Seconds: rc.seconds, Quick: rc.quick, Runs: runs}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
