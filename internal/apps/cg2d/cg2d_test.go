package cg2d

import (
	"math"
	"testing"

	"resmod/internal/apps"
	"resmod/internal/apps/apptest"
	"resmod/internal/apps/cg"
	"resmod/internal/faultsim"
)

func TestConformance(t *testing.T) {
	apptest.Conformance(t, App{}, apptest.Options{
		Procs:             []int{4, 16},
		WantUnique:        true,
		MaxUniqueFraction: 0.10,
	})
}

func TestGridSide(t *testing.T) {
	cases := map[int]int{1: 1, 4: 2, 16: 4, 64: 8, 2: 0, 8: 0, 32: 0, 15: 0}
	for p, want := range cases {
		if got := gridSide(p); got != want {
			t.Fatalf("gridSide(%d) = %d, want %d", p, got, want)
		}
	}
}

func TestRejectsNonSquareProcs(t *testing.T) {
	res := apps.Execute(App{}, "S", 8, nil, apps.DefaultTimeout)
	if res.Err == nil {
		t.Fatal("8 ranks accepted by the 2-D grid")
	}
}

func TestMatchesOneDimensionalCG(t *testing.T) {
	// The 2-D variant runs the same numerical algorithm on the same matrix
	// as package cg, so the serial eigenvalue estimates must agree to the
	// checker tolerance (they differ only in reduction grouping at p>1 and
	// are identical serially up to instruction order).
	oneD, err := apps.Lookup("CG")
	if err != nil {
		t.Fatal(err)
	}
	r1 := apps.Execute(oneD, "S", 1, nil, apps.DefaultTimeout)
	if r1.Err != nil {
		t.Fatal(r1.Err)
	}
	r2 := apps.Execute(App{}, "S", 1, nil, apps.DefaultTimeout)
	if r2.Err != nil {
		t.Fatal(r2.Err)
	}
	z1, z2 := r1.Outputs[0].Check[0], r2.Outputs[0].Check[0]
	if apps.RelErr(z1, z2, 1e-30) > 1e-9 {
		t.Fatalf("zeta differs between decompositions: %v vs %v", z1, z2)
	}
}

func TestBlockCSRTilesFullMatrix(t *testing.T) {
	// The four blocks of a 2x2 grid must contain exactly the entries of
	// the full matrix.
	n, ok := cg.Order("S")
	if !ok {
		t.Fatal("class S missing")
	}
	b := n / 2
	fullPtr, fullIdx, fullVals, _ := cg.BlockCSR("S", 0, n, 0, n)
	total := 0
	for bi := 0; bi < 2; bi++ {
		for bj := 0; bj < 2; bj++ {
			ptr, _, _, ok := cg.BlockCSR("S", bi*b, (bi+1)*b, bj*b, (bj+1)*b)
			if !ok {
				t.Fatal("block build failed")
			}
			total += ptr[len(ptr)-1]
		}
	}
	if total != fullPtr[len(fullPtr)-1] {
		t.Fatalf("blocks have %d entries, full matrix %d", total, fullPtr[len(fullPtr)-1])
	}
	_ = fullIdx
	_ = fullVals
}

func TestStagedPropagation(t *testing.T) {
	// 2-D CG contaminates either a few ranks (error dies before jumping
	// rows) or everyone; the histogram should put most mass at 1..side and
	// at p.
	sum, err := faultsim.Run(faultsim.Campaign{
		App: App{}, Procs: 16, Trials: 30, Seed: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	probs := sum.Hist.Probabilities()
	var lowOrFull float64
	for x := 1; x <= 4; x++ {
		lowOrFull += probs[x-1]
	}
	lowOrFull += probs[15]
	if lowOrFull < 0.5 {
		t.Fatalf("propagation mass neither local nor global: %v", probs)
	}
	if math.Abs(sum.Rates.Success+sum.Rates.SDC+sum.Rates.Failure-1) > 1e-12 {
		t.Fatalf("rates = %+v", sum.Rates)
	}
}

// TestPooledRunAllocBounded pins a steady-state run's allocation at 1.25 x
// what it measured when the pins were set: its working set, made once.
func TestPooledRunAllocBounded(t *testing.T) {
	apptest.AllocBounded(t, App{}, map[int]apptest.Alloc{
		1:  {Bytes: 62400, Objects: 28},
		4:  {Bytes: 136000, Objects: 102},
		16: {Bytes: 295000, Objects: 407},
		64: {Bytes: 751000, Objects: 1700},
	})
}
