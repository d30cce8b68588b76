package exper

import (
	"bytes"
	"strings"
	"testing"
)

func TestReportEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("full report (includes 128-rank deployments) skipped in -short mode")
	}
	s := NewSession(Config{Trials: 5, Seed: 99})
	var buf bytes.Buffer
	if err := Report(s, &buf, Params{App: "CG", Small: 4, Large: 16}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"## Table 1", "## Table 2", "## Figures 1–2", "## Figure 3",
		"## Figure 5", "## Figure 6", "## Figure 7", "## Figure 8",
		"paper", "measured",
		"## Extensions beyond the paper's evaluation",
		"### Model vs naive baselines", "### Model ingredient ablation",
		"### Extrapolation depth", "### Sensitivity ablations",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out[:min(2000, len(out))])
		}
	}
	// One section per report heading of the plan, in plan order.
	at, last := 0, ""
	for _, e := range Plan {
		if e.Heading == "" || e.Heading == last {
			continue
		}
		last = e.Heading
		line := "# " + e.Heading + "\n"
		if n := strings.Count(out, line); n != 1 {
			t.Errorf("%s: heading %q appears %d times", e.Name, e.Heading, n)
		}
		i := strings.Index(out[at:], line)
		if i < 0 {
			t.Fatalf("%s: heading %q missing or out of plan order", e.Name, e.Heading)
		}
		at += i
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
