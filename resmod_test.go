package resmod_test

import (
	"math"
	"slices"
	"testing"

	"resmod"
)

// TestFacadeLookupAndNames: the facade registers exactly the paper's six
// applications, so an app the evaluation does not cover cannot come back
// unnoticed.
func TestFacadeLookupAndNames(t *testing.T) {
	names := resmod.AppNames()
	want := []string{"CG", "FT", "LU", "MG", "MiniFE", "PENNANT"}
	if !slices.Equal(names, want) {
		t.Fatalf("registered apps %v, want exactly %v", names, want)
	}
	if _, err := resmod.LookupApp("nope"); err == nil {
		t.Fatal("unknown app accepted")
	}
}

func TestFacadeCampaignEndToEnd(t *testing.T) {
	app, err := resmod.LookupApp("PENNANT")
	if err != nil {
		t.Fatal(err)
	}
	sum, err := resmod.RunCampaign(resmod.Campaign{
		App: app, Procs: 4, Trials: 20, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Rates.N != 20 {
		t.Fatalf("N = %d", sum.Rates.N)
	}
	if math.Abs(sum.Rates.Success+sum.Rates.SDC+sum.Rates.Failure-1) > 1e-12 {
		t.Fatalf("rates = %+v", sum.Rates)
	}
	if sum.Hist.P() != 4 {
		t.Fatalf("hist over %d ranks", sum.Hist.P())
	}
}

func TestFacadeGolden(t *testing.T) {
	app, err := resmod.LookupApp("LU")
	if err != nil {
		t.Fatal(err)
	}
	g, err := resmod.ComputeGolden(app, "", 2)
	if err != nil {
		t.Fatal(err)
	}
	if g.TotalCounts().Total() == 0 {
		t.Fatal("golden has no ops")
	}
}

func TestFacadeModelRoundTrip(t *testing.T) {
	xs, err := resmod.SampleXs(16, 4)
	if err != nil {
		t.Fatal(err)
	}
	rates := make([]resmod.Rates, 4)
	for i := range rates {
		rates[i] = resmod.Rates{Success: 1 - 0.1*float64(i), SDC: 0.1 * float64(i), N: 100}
	}
	curve, err := resmod.NewSerialCurve(16, xs, rates)
	if err != nil {
		t.Fatal(err)
	}
	pred, err := resmod.Predict(resmod.ModelInputs{
		P: 16, Serial: curve,
		SmallProfile:     []float64{0.25, 0.25, 0.25, 0.25},
		SmallConditional: map[int]resmod.Rates{},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := (1.0 + 0.9 + 0.8 + 0.7) / 4
	if math.Abs(pred.Rates.Success-want) > 1e-12 {
		t.Fatalf("success = %g, want %g", pred.Rates.Success, want)
	}
}

func TestFacadePredictScale(t *testing.T) {
	s := resmod.NewSession(resmod.SessionConfig{Trials: 10, Seed: 4})
	row, err := resmod.PredictScale(s, "PENNANT", "", 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	if row.Large != 8 || row.Small != 4 {
		t.Fatalf("row = %+v", row)
	}
}

func TestFacadeFlipBit(t *testing.T) {
	if resmod.FlipBit(2.0, 63) != -2.0 {
		t.Fatal("FlipBit sign flip broken")
	}
}
