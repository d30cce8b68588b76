package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestVerdict(t *testing.T) {
	lower := metricDef{name: "wall_s", better: "lower", bound: 0.10}
	higher := metricDef{name: "ops_per_s", better: "higher", bound: 0.10}
	tight := func(c float64) []float64 { return []float64{c * 0.99, c, c * 1.01, c, c * 1.005} }
	for _, c := range []struct {
		name     string
		d        metricDef
		old, new []float64
		want     string
	}{
		{"single same", lower, []float64{10}, []float64{10.5}, "same"},
		{"single worse", lower, []float64{10}, []float64{11.5}, "worse"},
		{"single better", lower, []float64{10}, []float64{8}, "better"},
		{"higher is better: drop is worse", higher, []float64{100}, []float64{85}, "worse"},
		{"higher is better: rise is better", higher, []float64{100}, []float64{120}, "better"},
		{"medians within bound", lower, tight(10), tight(10.4), "same"},
		{"median worse than bound", lower, tight(10), tight(11.5), "worse"},
		{"median better than bound", lower, tight(10), tight(8.5), "better"},
		// The old side's quartiles are 30% of its median apart: the bound
		// cannot be resolved from medians that close.
		{"spread wider than bound", lower, []float64{8, 9, 10, 11, 12, 13}, tight(10.2), "unresolved"},
		{"wide spread but every new run better", lower, []float64{8, 9, 10, 11, 12, 13}, tight(5), "better"},
		{"wide spread but every new run worse", lower, []float64{8, 9, 10, 11, 12, 13}, tight(20), "worse"},
		{"wide spread, higher is better, all better", higher, []float64{8, 9, 10, 11, 12, 13}, tight(20), "better"},
	} {
		if got, _ := verdict(c.d, c.old, c.new); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

func writeResultFile(t *testing.T, dir, name string, rf resultFile) string {
	t.Helper()
	path := filepath.Join(dir, name)
	rc := runConfig{seed: rf.Seed, seconds: rf.Seconds, quick: rf.Quick}
	if err := writeResults(path, rc, rf.Runs); err != nil {
		t.Fatal(err)
	}
	return path
}

func e2eRun(workload string, wall float64, digest string) *runResult {
	return &runResult{Workload: workload, Seed: 2018, Correct: true, Digest: digest, Metrics: map[string]float64{
		"setup_s": 0.5, "wall_s": wall, "ops_per_s": 100 / wall, "latency_p50_ms": wall * 1000, "peak_rss_mb": 40}}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	old := writeResultFile(t, dir, "old.json", resultFile{Seed: 2018, Runs: []*runResult{e2eRun("predict_paper", 2.0, "aa")}})
	same := writeResultFile(t, dir, "same.json", resultFile{Seed: 2018, Runs: []*runResult{e2eRun("predict_paper", 2.1, "aa")}})
	slow := writeResultFile(t, dir, "slow.json", resultFile{Seed: 2018, Runs: []*runResult{e2eRun("predict_paper", 3.0, "aa")}})
	drift := writeResultFile(t, dir, "drift.json", resultFile{Seed: 2018, Runs: []*runResult{e2eRun("predict_paper", 2.0, "bb")}})
	quick := writeResultFile(t, dir, "quick.json", resultFile{Seed: 2018, Quick: true, Runs: []*runResult{e2eRun("predict_paper", 2.0, "aa")}})

	var out bytes.Buffer
	if code := compareMain([]string{old, same}, &out); code != 0 {
		t.Errorf("same results: exit %d\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "same") || strings.Contains(out.String(), "worse") {
		t.Errorf("same results: table\n%s", out.String())
	}
	out.Reset()
	if code := compareMain([]string{old, slow}, &out); code != 1 || !strings.Contains(out.String(), "worse") {
		t.Errorf("a 50%% slower wall_s: exit %d\n%s", code, out.String())
	}
	out.Reset()
	if code := compareMain([]string{old, drift}, &out); code != 1 || !strings.Contains(out.String(), "result_digest differs") {
		t.Errorf("a changed digest: exit %d\n%s", code, out.String())
	}
	stderr = &out
	defer func() { stderr = os.Stderr }()
	if code := compareMain([]string{old, quick}, &out); code != 2 {
		t.Errorf("a -quick result must be refused, got exit %d", code)
	}
}
