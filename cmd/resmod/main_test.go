package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// runCmd executes the CLI entry point with tiny workloads.
func runCmd(t *testing.T, args ...string) string {
	t.Helper()
	var out, errw bytes.Buffer
	if err := run(context.Background(), args, &out, &errw); err != nil {
		t.Fatalf("run(%v): %v\nstderr: %s", args, err, errw.String())
	}
	return out.String()
}

func TestUnknownCommand(t *testing.T) {
	var out, errw bytes.Buffer
	// "top" is no subcommand: the operator surface is the JSON endpoints.
	for _, cmd := range []string{"nope", "top"} {
		err := run(context.Background(), []string{cmd}, &out, &errw)
		if err == nil || !strings.Contains(err.Error(), "unknown experiment") {
			t.Fatalf("run(%q) = %v, want an unknown experiment error", cmd, err)
		}
	}
	if err := run(context.Background(), nil, &out, &errw); err == nil {
		t.Fatal("missing command accepted")
	}
}

func TestAppsCommand(t *testing.T) {
	got := runCmd(t, "apps")
	for _, want := range []string{"CG", "FT", "MG", "LU", "MiniFE", "PENNANT"} {
		if !strings.Contains(got, want) {
			t.Fatalf("apps output missing %s:\n%s", want, got)
		}
	}
}

func TestOverheadCommand(t *testing.T) {
	got := runCmd(t, "overhead", "-quiet")
	if !strings.Contains(got, "serial ops") || !strings.Contains(got, "4-rank ops") {
		t.Fatalf("overhead output:\n%s", got)
	}
}

func TestTable1Command(t *testing.T) {
	got := runCmd(t, "table1", "-quiet")
	if !strings.Contains(got, "FT (S)") || !strings.Contains(got, "No parallel-unique comp") {
		t.Fatalf("table1 output:\n%s", got)
	}
}

func TestPredictCommandSmall(t *testing.T) {
	got := runCmd(t, "predict", "-quiet", "-trials", "8",
		"-app", "PENNANT", "-small", "2", "-large", "4")
	if !strings.Contains(got, "average error") {
		t.Fatalf("predict output:\n%s", got)
	}
}

// TestTraceCommand: a trace replays the campaign's own trials, so the sizes
// of the contaminated sets it lists are the histogram `resmod campaign`
// reports at the same seed (an empty set lands in bin 1, as the campaign's
// tally clamps it).
func TestTraceCommand(t *testing.T) {
	args := []string{"-trials", "20", "-seed", "2018"}
	got := runCmd(t, append([]string{"trace", "-quiet", "-app", "CG", "-small", "4"}, args...)...)
	if !strings.Contains(got, "outcome:") || !strings.Contains(got, "golden:") {
		t.Fatalf("trace output:\n%s", got)
	}
	hist := make([]uint64, 4)
	for _, m := range regexp.MustCompile(`contaminated ranks: \[([0-9 ]*)\]`).FindAllStringSubmatch(got, -1) {
		hist[max(len(strings.Fields(m[1])), 1)-1]++
	}
	var sum struct{ Hist []uint64 }
	camp := runCmd(t, append([]string{"campaign", "-json", "-app", "CG", "-procs", "4"}, args...)...)
	if err := json.Unmarshal([]byte(camp), &sum); err != nil {
		t.Fatalf("campaign -json: %v\n%s", err, camp)
	}
	if !slices.Equal(hist, sum.Hist) {
		t.Fatalf("traced contaminated-set sizes %v, campaign histogram %v", hist, sum.Hist)
	}
}

func TestSplitApps(t *testing.T) {
	got := splitApps(" CG , FT ,,LU ")
	want := []string{"CG", "FT", "LU"}
	if len(got) != len(want) {
		t.Fatalf("splitApps = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("splitApps = %v", got)
		}
	}
	if splitApps("") != nil {
		t.Fatal("empty split not nil")
	}
}

func TestTable1JSON(t *testing.T) {
	got := runCmd(t, "table1", "-quiet", "-json")
	if !strings.Contains(got, `"Bench": "CG"`) || !strings.Contains(got, `"UniqueFraction"`) {
		t.Fatalf("json output:\n%s", got)
	}
}

func TestCampaignCommand(t *testing.T) {
	got := runCmd(t, "campaign", "-app", "PENNANT", "-procs", "2", "-trials", "10")
	if !strings.Contains(got, "propagation histogram") || !strings.Contains(got, "95% CI") {
		t.Fatalf("campaign output:\n%s", got)
	}
}

func TestCampaignCommandJSON(t *testing.T) {
	got := runCmd(t, "campaign", "-app", "PENNANT", "-procs", "1", "-trials", "5", "-json")
	if !strings.Contains(got, `"Hist"`) || !strings.Contains(got, `"AvgFired"`) {
		t.Fatalf("campaign json:\n%s", got)
	}
}

func TestCampaignCheckpointResume(t *testing.T) {
	ck := filepath.Join(t.TempDir(), "ck.json")
	first := runCmd(t, "campaign", "-app", "PENNANT", "-procs", "2", "-trials", "8",
		"-checkpoint", ck)
	if _, err := os.Stat(ck); err != nil {
		t.Fatalf("checkpoint not written: %v", err)
	}
	// The checkpoint records all 8 trials done, so the resumed run replays
	// the tallies without re-executing and must print identical results.
	second := runCmd(t, "campaign", "-app", "PENNANT", "-procs", "2", "-trials", "8",
		"-checkpoint", ck, "-resume")
	if got, want := resultLine(t, second), resultLine(t, first); got != want {
		t.Fatalf("resumed result differs:\nfirst:  %s\nsecond: %s", want, got)
	}
}

// resultLine extracts the "result:" line of a campaign's text output.
func resultLine(t *testing.T, out string) string {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "result:") {
			return line
		}
	}
	t.Fatalf("no result line in output:\n%s", out)
	return ""
}

func TestCampaignCommandValidation(t *testing.T) {
	ctx := context.Background()
	var out, errw bytes.Buffer
	if err := run(ctx, []string{"campaign", "-region", "bogus"}, &out, &errw); err == nil {
		t.Fatal("bogus region accepted")
	}
	if err := run(ctx, []string{"campaign", "-resume"}, &out, &errw); err == nil {
		t.Fatal("-resume without -checkpoint accepted")
	}
}
