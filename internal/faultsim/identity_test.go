package faultsim

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"

	"resmod/internal/fpe"
	"resmod/internal/stats"
)

// TestIdentityFormat pins the v3 identity format.  The identity keys
// checkpoints and the prediction service's durable result store, so any
// change here is a breaking schema change: bump IdentityVersion and update
// this test deliberately, never incidentally.
func TestIdentityFormat(t *testing.T) {
	app := lookup(t, "CG")
	c := Campaign{App: app, Procs: 8, Trials: 400, Errors: 2,
		Region: CommonOnly, Seed: 2018, Pattern: fpe.SingleBit}

	got := c.Normalized().Identity()
	want := "cid:v3/CG/S/p8/t400/e2/r1/s2018/pat0/tol1e-10"
	if got != want {
		t.Fatalf("Identity() = %q, want %q", got, want)
	}

	// The extension knobs append in a fixed order.
	bit := uint(51)
	c.SpreadErrors = true
	c.KindMask = 3
	c.FixedBit = &bit
	c.Window = &[2]float64{0.25, 0.75}
	c.ContaminationTol = 1e-6
	got = c.Normalized().Identity()
	want = "cid:v3/CG/S/p8/t400/e2/r1/s2018/pat0/spread/tol1e-06/k3/b51/w0.25-0.75"
	if got != want {
		t.Fatalf("Identity() with extensions = %q, want %q", got, want)
	}
}

// TestIdentityNormalization checks that the defaulted and the explicit
// spellings of the same deployment share one identity — the property that
// lets session callers, checkpoints and the result store agree on keys.
func TestIdentityNormalization(t *testing.T) {
	app := lookup(t, "CG")
	implicit := Campaign{App: app, Procs: 4, Trials: 10, Seed: 1}
	explicit := Campaign{App: app, Class: app.DefaultClass(), Procs: 4,
		Trials: 10, Errors: 1, Seed: 1, ContaminationTol: DefaultContaminationTol}
	if got, want := implicit.Normalized().Identity(), explicit.Identity(); got != want {
		t.Fatalf("normalized identity %q != explicit identity %q", got, want)
	}
	// Workers/Timeout/Budget and resilience knobs never enter the key.
	tuned := explicit
	tuned.Workers = 7
	tuned.Timeout = time.Minute
	tuned.Budget = time.Hour
	tuned.MaxAbnormal = 3
	if tuned.Identity() != explicit.Identity() {
		t.Fatal("non-outcome fields leaked into the identity")
	}
	if !strings.HasPrefix(explicit.Identity(), "cid:v3/") {
		t.Fatalf("identity %q lacks the version prefix", explicit.Identity())
	}
}

// TestSummaryRecordRoundTrip runs a tiny campaign and checks that its
// Summary survives Record -> JSON -> Restore with every model-facing field
// intact.
func TestSummaryRecordRoundTrip(t *testing.T) {
	c := Campaign{App: lookup(t, "PENNANT"), Procs: 2, Trials: 24, Seed: 7}
	sum, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	id := c.Normalized().Identity()
	rec := sum.Record(id)
	if rec == nil {
		t.Fatal("Record returned nil for a complete summary")
	}
	data, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	back := &SummaryRecord{}
	if err := json.Unmarshal(data, back); err != nil {
		t.Fatal(err)
	}
	got, err := back.Restore()
	if err != nil {
		t.Fatal(err)
	}
	if got.Rates != sum.Rates || got.TrialsDone != sum.TrialsDone ||
		got.Abnormal != sum.Abnormal || got.AvgFired != sum.AvgFired ||
		got.Elapsed != sum.Elapsed {
		t.Fatalf("restored scalars differ:\n got %+v\nwant %+v", got, sum)
	}
	if !reflect.DeepEqual(got.Hist.Counts, sum.Hist.Counts) ||
		!reflect.DeepEqual(got.SpreadByDistance, sum.SpreadByDistance) {
		t.Fatal("restored histograms differ")
	}
	if len(got.ByContamination) != len(sum.ByContamination) {
		t.Fatalf("restored %d conditional counters, want %d",
			len(got.ByContamination), len(sum.ByContamination))
	}
	for x, want := range sum.ByContamination {
		if bc := got.ByContamination[x]; bc == nil || *bc != *want {
			t.Fatalf("conditional counter %d differs", x)
		}
	}
	if got.Golden != nil {
		t.Fatal("restored summary should not carry a golden run")
	}
}

// TestSummaryRecordRejectsCorruption checks that Restore turns damaged
// records into errors rather than wrong summaries.
func TestSummaryRecordRejectsCorruption(t *testing.T) {
	base := SummaryRecord{
		Version: SummaryRecordVersion, Identity: "cid:v3/x",
		Tally: Tally{
			Counter: stats.Counter{Success: 3, SDC: 1, Failure: 1},
			Hist:    []uint64{4}, ByContamination: map[int]stats.Counter{1: {Success: 3, SDC: 1}},
		},
		TrialsDone: 5,
	}
	if _, err := base.Restore(); err != nil {
		t.Fatalf("consistent record rejected: %v", err)
	}
	wrongVersion := base
	wrongVersion.Version = SummaryRecordVersion + 1
	if _, err := wrongVersion.Restore(); err == nil {
		t.Fatal("future-version record accepted")
	}
	wrongCounts := base
	wrongCounts.TrialsDone = 7
	if _, err := wrongCounts.Restore(); err == nil {
		t.Fatal("inconsistent outcome tallies accepted")
	}
	wrongHist := base
	wrongHist.Hist = []uint64{9}
	if _, err := wrongHist.Restore(); err == nil {
		t.Fatal("inconsistent histogram accepted")
	}
}
