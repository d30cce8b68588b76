package apps

import (
	"math"
	"testing"
	"testing/quick"

	"resmod/internal/fpe"
	"resmod/internal/simmpi"
)

func TestBlock1D(t *testing.T) {
	cases := []struct{ n, p, r, lo, hi int }{
		{64, 4, 0, 0, 16},
		{64, 4, 3, 48, 64},
		{64, 1, 0, 0, 64},
		{128, 64, 63, 126, 128},
	}
	for _, c := range cases {
		lo, hi := Block1D(c.n, c.p, c.r)
		if lo != c.lo || hi != c.hi {
			t.Fatalf("Block1D(%d,%d,%d) = (%d,%d), want (%d,%d)",
				c.n, c.p, c.r, lo, hi, c.lo, c.hi)
		}
	}
}

func TestBlock1DPanicsOnIndivisible(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Block1D(10, 3, 0)
}

// Property: blocks tile [0, n) exactly.
func TestBlock1DTiles(t *testing.T) {
	f := func(pRaw, szRaw uint8) bool {
		p := int(pRaw%16) + 1
		n := p * (int(szRaw%20) + 1)
		prev := 0
		for r := 0; r < p; r++ {
			lo, hi := Block1D(n, p, r)
			if lo != prev || hi <= lo {
				return false
			}
			prev = hi
		}
		return prev == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestRelErr(t *testing.T) {
	if RelErr(100, 101, 1e-30) != 0.01 {
		t.Fatalf("RelErr = %g", RelErr(100, 101, 1e-30))
	}
	// Near zero, the floor takes over (absolute comparison).
	if got := RelErr(0, 1e-6, 1e-3); got != 1e-3 {
		t.Fatalf("floored RelErr = %g", got)
	}
}

func TestAllFinite(t *testing.T) {
	if !AllFinite([]float64{1, -2, 0}) {
		t.Fatal("finite slice rejected")
	}
	if AllFinite([]float64{1, math.NaN()}) || AllFinite([]float64{math.Inf(1)}) {
		t.Fatal("non-finite slice accepted")
	}
	if !AllFinite(nil) {
		t.Fatal("empty slice rejected")
	}
}

func TestVerifyRel(t *testing.T) {
	golden := []float64{1, 2, 3}
	if !VerifyRel(golden, []float64{1, 2, 3}, 1e-12) {
		t.Fatal("identical rejected")
	}
	if !VerifyRel(golden, []float64{1 + 1e-10, 2, 3}, 1e-8) {
		t.Fatal("tiny deviation rejected")
	}
	if VerifyRel(golden, []float64{1.1, 2, 3}, 1e-8) {
		t.Fatal("large deviation accepted")
	}
	if VerifyRel(golden, []float64{1, 2}, 1e-8) {
		t.Fatal("length mismatch accepted")
	}
	if VerifyRel(golden, []float64{math.NaN(), 2, 3}, 1e-8) {
		t.Fatal("NaN accepted")
	}
}

func TestHaloExchange1D(t *testing.T) {
	const p = 4
	_, err := simmpi.Run(simmpi.Config{Procs: p}, func(c *simmpi.Comm) error {
		r := c.Rank()
		lo := []float64{float64(10 * r)}
		hi := []float64{float64(10*r + 1)}
		ghLo, ghHi := HaloExchange1D(c, 50, lo, hi, make([]float64, 1), make([]float64, 1))
		if r == 0 && ghLo != nil {
			t.Errorf("rank 0 has a lower ghost")
		}
		if r > 0 && (ghLo == nil || ghLo[0] != float64(10*(r-1)+1)) {
			t.Errorf("rank %d ghLo = %v", r, ghLo)
		}
		if r == p-1 && ghHi != nil {
			t.Errorf("last rank has an upper ghost")
		}
		if r < p-1 && (ghHi == nil || ghHi[0] != float64(10*(r+1))) {
			t.Errorf("rank %d ghHi = %v", r, ghHi)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestHaloExchange1DSerial(t *testing.T) {
	_, err := simmpi.Run(simmpi.Config{Procs: 1}, func(c *simmpi.Comm) error {
		lo, hi := HaloExchange1D(c, 50, []float64{1}, []float64{2}, make([]float64, 1), make([]float64, 1))
		if lo != nil || hi != nil {
			t.Error("serial halos not nil")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCheckProcsErrors(t *testing.T) {
	a := fakeApp{}
	if err := CheckProcs(a, "x", 3); err == nil {
		t.Fatal("non-power-of-two accepted")
	}
	if err := CheckProcs(a, "x", 16); err == nil {
		t.Fatal("over max accepted")
	}
	if err := CheckProcs(a, "x", 0); err == nil {
		t.Fatal("zero accepted")
	}
	if err := CheckProcs(a, "x", 8); err != nil {
		t.Fatalf("valid procs rejected: %v", err)
	}
}

type fakeApp struct{}

func (fakeApp) Name() string               { return "fake" }
func (fakeApp) Classes() []string          { return []string{"x"} }
func (fakeApp) DefaultClass() string       { return "x" }
func (fakeApp) MaxProcs(string) int        { return 8 }
func (fakeApp) Verify(_, _ []float64) bool { return true }
func (fakeApp) Run(_ *fpe.Ctx, _ *simmpi.Comm, _ string) (RankOutput, error) {
	return RankOutput{}, nil
}
