package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"resmod/internal/exper"
)

// testdata/ holds each plan row's stdout at `-trials 5 -seed 99 -quiet`,
// captured from the parent of the commit that replaced main.go's
// per-experiment switch with exper.Plan — what the sixteen deleted do*
// wrappers printed.  trace.txt alone is from the change: its
// contaminated-rank lists are the bug that commit fixed.
var pinned = exper.Config{Trials: 5, Seed: 99}

// rowParams gives the parametrised rows (-app, -apps, -small, -large) a
// configuration small enough for a test; every other row was captured at
// the flag defaults.
var (
	flagDefaults = exper.Params{App: "CG", Small: 8, Large: 64}
	rowParams    = map[string]exper.Params{
		"predict":     {App: "PENNANT", Small: 2, Large: 4},
		"baselines":   {Apps: []string{"CG", "PENNANT"}, App: "CG", Small: 2, Large: 4},
		"modelablate": {App: "FT", Small: 2, Large: 4},
		"scalesweep":  {App: "CG", Small: 2, Large: 8},
		"ablate":      {App: "CG", Small: 2, Large: 64},
		"advise":      {App: "CG", Small: 2, Large: 64},
		"stability":   {App: "PENNANT", Small: 2, Large: 64},
		"trace":       {App: "CG", Small: 4, Large: 64},
	}
)

// wallTimes are the only outputs that legitimately differ run to run:
// overhead's two time lines, Figure 8's two time columns and the duration
// fields of the JSON rows.
var wallTimes = []struct {
	re   *regexp.Regexp
	with string
}{
	{regexp.MustCompile(`(?m)^(serial time:  |4-rank time:  ).*$`), "${1}T"},
	{regexp.MustCompile(`(?m)^(  \d+ +\d\.\d{4} +)\S+ +\S+$`), "${1}T"},
	{regexp.MustCompile(`"(\w*Time)": \d+`), `"$1": 0`},
}

func maskTimes(s string) string {
	for _, m := range wallTimes {
		s = m.re.ReplaceAllString(s, m.with)
	}
	return s
}

func pinnedFile(t *testing.T, name string) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return maskTimes(string(b))
}

// TestPlanRowsMatchPinnedOutput: dispatched on one session, as `all` and
// `report` run them, every plan row prints — byte for byte outside wall
// times — what its hand-written wrapper printed; -json encodes every row's
// value, with the bytes it always had where it was honoured before; and
// `all` is the paper's rows in plan order, nothing else.
func TestPlanRowsMatchPinnedOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment (incl. 128-rank deployments)")
	}
	s := exper.NewSession(pinned)
	show := func(name string, asJSON bool) string {
		t.Helper()
		p, ok := rowParams[name]
		if !ok {
			p = flagDefaults
		}
		var out bytes.Buffer
		if err := dispatch(s, name, p, asJSON, &out); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return maskTimes(out.String())
	}
	var paper strings.Builder
	for _, e := range exper.Plan {
		got := show(e.Name, false)
		if want := pinnedFile(t, e.Name+".txt"); got != want {
			t.Errorf("%s output changed:\n got:\n%s\nwant:\n%s", e.Name, got, want)
		}
		if e.Paper {
			paper.WriteString(got + "\n")
		}

		js := show(e.Name, true)
		if !json.Valid([]byte(js)) {
			t.Errorf("%s -json is not JSON:\n%s", e.Name, js)
		}
		if _, err := os.Stat(filepath.Join("testdata", e.Name+".json")); err == nil {
			if want := pinnedFile(t, e.Name+".json"); js != want {
				t.Errorf("%s -json bytes changed:\n got:\n%s\nwant:\n%s", e.Name, js, want)
			}
		}
	}
	all := show("all", false)
	if all != paper.String() {
		t.Errorf("`all` is not the paper rows in plan order:\n%s", all)
	}
	if want := pinnedFile(t, "all.txt"); all != want {
		t.Errorf("all output changed:\n got:\n%s\nwant:\n%s", all, want)
	}
}

// TestViewsRejectJSON: the subcommands that present the whole plan have no
// single value to encode, and say so instead of ignoring the flag.
func TestViewsRejectJSON(t *testing.T) {
	for name := range views {
		var out, errw bytes.Buffer
		err := run(context.Background(), []string{name, "-json", "-quiet"}, &out, &errw)
		if err == nil || !strings.Contains(err.Error(), "-json") {
			t.Errorf("%s -json: err = %v, want one naming the flag", name, err)
		}
		if out.Len() != 0 {
			t.Errorf("%s -json wrote output before failing", name)
		}
		if _, isRow := exper.Lookup(name); isRow {
			t.Errorf("%q is both a view and a plan row", name)
		}
	}
}

// TestUsageListsPlan: the no-argument listing is generated from the plan.
func TestUsageListsPlan(t *testing.T) {
	var buf bytes.Buffer
	usage(&buf)
	listed := strings.Fields(buf.String())
	for _, e := range exper.Plan {
		found := false
		for _, f := range listed {
			found = found || f == e.Name
		}
		if !found {
			t.Errorf("usage does not list %q", e.Name)
		}
	}
}

// subcommand matches a CLI invocation as the docs write it: in backticks,
// or starting a line of a shell block.
var subcommand = regexp.MustCompile("(?m)(?:`|^)resmod ([a-z0-9]+)")

// TestDocsNamePlanRows: README's "Reproducing the paper" section and
// DESIGN's per-experiment index name every plan row as `resmod <name>`,
// and name no experiment the plan does not have.
func TestDocsNamePlanRows(t *testing.T) {
	notRows := map[string]bool{"campaign": true}
	for name := range views {
		notRows[name] = true
	}
	for _, doc := range []struct{ file, from, to string }{
		{"../../README.md", "\n## Reproducing the paper\n", "\n## Campaign resilience\n"},
		{"../../DESIGN.md", "\n## 5. Per-experiment index", "\n## 6. "},
	} {
		b, err := os.ReadFile(doc.file)
		if err != nil {
			t.Fatal(err)
		}
		text := string(b)
		i := strings.Index(text, doc.from)
		j := strings.Index(text, doc.to)
		if i < 0 || j < i {
			t.Fatalf("%s: section %q..%q not found", doc.file, doc.from, doc.to)
		}
		named := make(map[string]bool)
		for _, m := range subcommand.FindAllStringSubmatch(text[i:j], -1) {
			named[m[1]] = true
		}
		for _, e := range exper.Plan {
			if !named[e.Name] {
				t.Errorf("%s does not name `resmod %s`", doc.file, e.Name)
			}
			delete(named, e.Name)
		}
		for name := range named {
			if !notRows[name] {
				t.Errorf("%s names `resmod %s`, which the plan does not have", doc.file, name)
			}
		}
	}
}
