package faultsim

import (
	"context"
	"fmt"
	"testing"

	"resmod/internal/apps"
	_ "resmod/internal/apps/ft"
	_ "resmod/internal/apps/mg"
	_ "resmod/internal/apps/minife"
	"resmod/internal/telemetry"
)

// TestResumeMatchesFromZero: campaigns whose trials resume from the prefix
// table and stop where they reconverge summarise byte for byte like the
// same campaigns run from op 0 — at Workers 1 and 3, and merged from a
// 3-shard cover, each shard with its own table.  Some of every one-error
// campaign's trials really stop early.
func TestResumeMatchesFromZero(t *testing.T) {
	for _, tc := range []struct {
		app           string
		procs, errors int
	}{
		{"CG", 4, 1}, {"FT", 4, 1}, {"MG", 4, 1},
		{"LU", 4, 1}, {"MiniFE", 4, 1}, {"PENNANT", 4, 1},
		{"CG", 1, 8}, {"MiniFE", 1, 8}, {"PENNANT", 4, 3},
	} {
		c := Campaign{App: lookup(t, tc.app), Procs: tc.procs, Trials: 40, Errors: tc.errors, Seed: 7}
		if stopped := matchesFromZero(t, c); tc.errors == 1 && stopped == 0 {
			t.Errorf("%s p=%d: no trial stopped early", tc.app, tc.procs)
		}
	}
}

// TestReconvergedMatchesFromZero: more campaigns whose trials stop where
// they reconverge, each byte for byte like its op-0 campaign.  Without the
// step-0 rule the MiniFE ones would not be: faults in step 0's assembly
// leave boundary 1's carry as it was and the stencil wrong.  The two-error
// PENNANT one checks after its last injection, and at p = 8 most faults
// reach the check boundary on a few ranks only.  (apps'
// TestReconvergeCheck holds a run with an injection pending at the check
// boundary to run on.)
func TestReconvergedMatchesFromZero(t *testing.T) {
	for _, c := range []Campaign{
		{App: lookup(t, "MiniFE"), Procs: 1, Trials: 40, Errors: 1, Seed: 4},
		{App: lookup(t, "MiniFE"), Procs: 4, Trials: 40, Errors: 1, Seed: 2},
		{App: lookup(t, "PENNANT"), Procs: 2, Trials: 80, Errors: 2, Seed: 11},
		{App: lookup(t, "CG"), Procs: 8, Trials: 30, Errors: 1, Seed: 5},
		{App: lookup(t, "LU"), Procs: 8, Trials: 30, Errors: 1, Seed: 5},
	} {
		matchesFromZero(t, c)
	}
}

// matchesFromZero fails t unless campaign c summarises byte for byte like
// its op-0 campaign at Workers 1 and 3 and over a 3-shard cover, and
// returns how many of the Workers-1 campaign's trials stopped early.
func matchesFromZero(t *testing.T, c Campaign) uint64 {
	t.Helper()
	golden, err := ComputeGolden(c.App, "", c.Procs, apps.DefaultTimeout)
	if err != nil {
		t.Fatal(err)
	}
	identity := c.Normalized().Identity()
	name := fmt.Sprintf("%s p=%d k=%d", c.App.Name(), c.Procs, c.Errors)
	var stopped uint64
	run := func(c Campaign) string {
		rec := telemetry.NewRecorder()
		sum, err := RunAgainstCtx(telemetry.With(context.Background(), telemetry.New(nil, nil, rec)), c, golden)
		if err != nil {
			t.Fatal(err)
		}
		if c.Workers == 1 && c.hooks == nil {
			stopped = rec.Snapshot().Reconverged
		}
		return recordJSON(t, sum, identity)
	}
	fromZero := c
	fromZero.Workers, fromZero.hooks = 1, &campaignHooks{fromZero: true}
	want := run(fromZero)
	for _, w := range []int{1, 3} {
		c.Workers = w
		if got := run(c); got != want {
			t.Errorf("%s Workers=%d: campaign differs from op-0 campaign:\n%s\nwant\n%s", name, w, got, want)
		}
	}
	m := NewMerger(c, golden)
	third := c.Trials / 3
	for _, r := range [][2]int{{0, third}, {third, 2*third + 1}, {2*third + 1, c.Trials}} {
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
		t.Errorf("%s: merged shards differ from op-0 campaign", name)
	}
	t.Logf("%s: %d of %d trials stopped early", name, stopped, c.Trials)
	return stopped
}

// TestResumeTableBudget: a table holds evenly spaced boundaries within its
// byte budget and never the last one; an app without steps gets none.
func TestResumeTableBudget(t *testing.T) {
	golden, err := ComputeGolden(allocApp{}, "S", 4, apps.DefaultTimeout)
	if err != nil {
		t.Fatal(err)
	}
	if tab := newPrefixTable(golden); tab != nil || golden.StepCounts != nil {
		t.Fatalf("%s has no steps but step counts %v and a table %v", allocApp{}.Name(), golden.StepCounts, tab)
	}
	for _, name := range []string{"CG", "FT", "MG", "LU", "MiniFE", "PENNANT"} {
		app := lookup(t, name)
		golden, err := ComputeGolden(app, "", 4, apps.DefaultTimeout)
		if err != nil {
			t.Fatal(err)
		}
		tab := newPrefixTable(golden)
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
