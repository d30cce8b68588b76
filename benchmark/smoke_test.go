package main

import (
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// childEnv marks a re-exec of the test binary as the benchmark program
// itself, so the smoke test drives real child processes (and the traced
// run's one-thread child finds a benchmark behind os.Executable).
const childEnv = "RESMOD_BENCHMARK_CHILD"

func TestMain(m *testing.M) {
	if os.Getenv(childEnv) == "1" {
		os.Exit(run(os.Args[1:], os.Stdout))
	}
	os.Exit(m.Run())
}

// TestQuickSmoke runs all five workloads in both modes with -quick, each
// in a child process as the driver would, and checks the closing JSON line
// carries exactly the metrics BENCHMARK.json names for that mode, each a
// finite number with its declared unit, and that dist_shard reproduces
// predict_paper's result digest.
func TestQuickSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns ten benchmark children")
	}
	self, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	var (
		mu      sync.Mutex
		digests = map[string]string{}
	)
	t.Run("runs", func(t *testing.T) {
		for _, w := range workloads {
			for _, traced := range []bool{false, true} {
				w, traced := w, traced
				mode, defs := "0", endToEndMetrics
				if traced {
					mode, defs = "1", perLayerMetrics
				}
				t.Run(w.name+"/trace"+mode, func(t *testing.T) {
					t.Parallel()
					outFile := filepath.Join(t.TempDir(), "result.json")
					cmd := exec.Command(self, "--workload", w.name, "--seed", "7", "--seconds", "0.2",
						"--trace", mode, "--quick", "--out", outFile)
					cmd.Env = append(os.Environ(), childEnv+"=1")
					var errBuf strings.Builder
					cmd.Stderr = &errBuf
					out, err := cmd.Output()
					if err != nil {
						t.Fatalf("child failed: %v\n%s", err, errBuf.String())
					}
					lines := strings.Split(strings.TrimSpace(string(out)), "\n")
					var line struct {
						Correct   *bool                  `json:"correct"`
						Attempted *int                   `json:"attempted"`
						Failed    *int                   `json:"failed"`
						Metrics   map[string]driverValue `json:"metrics"`
					}
					dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
					dec.DisallowUnknownFields()
					if err := dec.Decode(&line); err != nil {
						t.Fatalf("last line is not the result object: %v\n%s", err, lines[len(lines)-1])
					}
					if line.Correct == nil || !*line.Correct || line.Attempted == nil || *line.Attempted < 1 ||
						line.Failed == nil || *line.Failed != 0 {
						t.Errorf("result not correct: %s\n%s", lines[len(lines)-1], errBuf.String())
					}
					if len(line.Metrics) != len(defs) {
						t.Errorf("%d metrics printed, BENCHMARK.json names %d for this mode", len(line.Metrics), len(defs))
					}
					for _, d := range defs {
						v, ok := line.Metrics[d.name]
						switch {
						case !ok:
							t.Errorf("metric %s missing", d.name)
						case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
							t.Errorf("metric %s = %v", d.name, v.Value)
						case v.Unit != d.unit:
							t.Errorf("metric %s has unit %q, declared %q", d.name, v.Unit, d.unit)
						case !traced && v.Value <= 0:
							t.Errorf("end-to-end metric %s = %v, must never be 0", d.name, v.Value)
						}
					}
					var rf resultFile
					if err := readJSON(outFile, &rf); err != nil {
						t.Fatal(err)
					}
					if !rf.Quick || len(rf.Runs) != 1 {
						t.Fatalf("-out file: quick=%v, %d runs", rf.Quick, len(rf.Runs))
					}
					if !traced {
						mu.Lock()
						digests[w.name] = rf.Runs[0].Digest
						mu.Unlock()
					}
				})
			}
		}
	})
	if digests["predict_paper"] == "" || digests["dist_shard"] != digests["predict_paper"] {
		t.Errorf("dist_shard digest %q, predict_paper digest %q: the sharded run must reproduce the local one",
			digests["dist_shard"], digests["predict_paper"])
	}
}

// TestRefusesToRunOutsideTheRepository is the contract's negative run: in
// a directory that holds only the benchmark, there is no module to build
// and no result may be printed.
func TestRefusesToRunOutsideTheRepository(t *testing.T) {
	self, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(self, "--workload", "predict_paper", "--trace", "0", "--quick", "--seconds", "0.1")
	cmd.Dir = t.TempDir()
	cmd.Env = append(os.Environ(), childEnv+"=1")
	out, err := cmd.Output()
	if err == nil {
		t.Fatalf("ran outside the repository and exited 0:\n%s", out)
	}
	if strings.Contains(string(out), `"metrics"`) {
		t.Errorf("printed a result outside the repository:\n%s", out)
	}
}
