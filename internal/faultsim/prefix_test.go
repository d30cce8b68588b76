package faultsim

import (
	"context"
	"testing"

	"resmod/internal/apps"
	_ "resmod/internal/apps/ft"
	_ "resmod/internal/apps/mg"
	_ "resmod/internal/apps/minife"
)

// TestResumeMatchesFromZero: campaigns whose trials resume from the prefix
// table summarise byte for byte like the same campaigns run from op 0 — at
// Workers 1 and 3, and merged from a 3-shard cover, each shard with its own
// table.
func TestResumeMatchesFromZero(t *testing.T) {
	for _, tc := range []struct {
		app           string
		procs, errors int
		spread        bool
	}{
		{"CG", 4, 1, false}, {"FT", 4, 1, false}, {"MG", 4, 1, false},
		{"LU", 4, 1, false}, {"MiniFE", 4, 1, false}, {"PENNANT", 4, 1, false},
		{"CG", 1, 8, false}, {"MiniFE", 1, 8, false}, {"PENNANT", 4, 3, true},
	} {
		app := lookup(t, tc.app)
		golden, err := ComputeGolden(app, "", tc.procs, apps.DefaultTimeout)
		if err != nil {
			t.Fatal(err)
		}
		c := Campaign{App: app, Procs: tc.procs, Trials: 40, Errors: tc.errors, SpreadErrors: tc.spread, Seed: 7}
		identity := c.Normalized().Identity()
		run := func(c Campaign) string {
			sum, err := RunAgainst(c, golden)
			if err != nil {
				t.Fatal(err)
			}
			return recordJSON(t, sum, identity)
		}
		fromZero := c
		fromZero.Workers, fromZero.hooks = 1, &campaignHooks{fromZero: true}
		want := run(fromZero)
		for _, w := range []int{1, 3} {
			c.Workers = w
			if got := run(c); got != want {
				t.Errorf("%s p=%d k=%d Workers=%d: resumed campaign differs from op-0 campaign:\n%s\nwant\n%s",
					tc.app, tc.procs, tc.errors, w, got, want)
			}
		}
		m := NewMerger(c, golden)
		for _, r := range [][2]int{{0, 13}, {13, 27}, {27, 40}} {
			res, err := RunShardCtx(context.Background(), c, golden, r[0], r[1])
			if err == nil {
				err = m.Merge(res)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		sum, err := m.Summary()
		if err != nil {
			t.Fatal(err)
		}
		if got := recordJSON(t, sum, identity); got != want {
			t.Errorf("%s p=%d k=%d: merged shards differ from op-0 campaign", tc.app, tc.procs, tc.errors)
		}
	}
}

// TestResumeTableBudget: a table holds evenly spaced boundaries within its
// byte budget and never the last one; an app without steps gets none.
func TestResumeTableBudget(t *testing.T) {
	for _, name := range []string{"CG", "FT", "MG", "LU", "MiniFE", "PENNANT", "EP"} {
		app := lookup(t, name)
		golden, err := ComputeGolden(app, "", 4, apps.DefaultTimeout)
		if err != nil {
			t.Fatal(err)
		}
		tab := newPrefixTable(golden)
		if name == "EP" {
			if tab != nil || golden.StepCounts != nil {
				t.Fatalf("EP has no steps but a table of %v", tab.steps)
			}
			continue
		}
		last := len(golden.StepCounts[0]) - 1
		t.Logf("%s: %d boundaries of %d B, holds %v", name, last, golden.carryBytes, tab.steps)
		if n := len(tab.steps); n*golden.carryBytes > prefixTableBytes || tab.steps[n-1] >= last {
			t.Errorf("%s: table holds %v of %d B each, last boundary %d", name, tab.steps, golden.carryBytes, last)
		}
		for i, b := range tab.steps {
			if b != (i+1)*tab.steps[0] {
				t.Errorf("%s: boundaries %v are not evenly spaced", name, tab.steps)
			}
		}
	}
}
