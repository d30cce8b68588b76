package mg

import (
	"math"
	"testing"

	"resmod/internal/apps"
	"resmod/internal/apps/apptest"
	"resmod/internal/fpe"
	"resmod/internal/simmpi"
)

func TestConformance(t *testing.T) {
	apptest.Conformance(t, App{}, apptest.Options{
		Procs:      []int{2, 4, 8},
		WantUnique: false,
	})
}

func TestVCyclesReduceResidual(t *testing.T) {
	// The residual after the final V-cycle must be far below the initial
	// residual norm ||v|| (sqrt(20 charges / n3) in RMS terms).
	res := apps.Execute(App{}, "S", 1, nil, apps.DefaultTimeout)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	pr := classes["S"]
	n3 := float64(pr.nx * pr.ny * pr.nz)
	initial := math.Sqrt(float64(2*pr.charges) / n3) // upper bound, pre-cancellation
	final := res.Outputs[0].Check[0]
	if final <= 0 || final > initial/2 {
		t.Fatalf("residual norm %g did not drop well below initial %g", final, initial)
	}
}

func TestSerialParallelBitIdenticalState(t *testing.T) {
	// MG's reductions never feed back into the iteration, so the parallel
	// state must equal the serial state bit-for-bit when reassembled.
	ser := apps.Execute(App{}, "S", 1, nil, apps.DefaultTimeout)
	if ser.Err != nil {
		t.Fatal(ser.Err)
	}
	const p = 4
	par := apps.Execute(App{}, "S", p, nil, apps.DefaultTimeout)
	if par.Err != nil {
		t.Fatal(par.Err)
	}
	var joined []float64
	for r := 0; r < p; r++ {
		joined = append(joined, par.Outputs[r].State...)
	}
	if len(joined) != len(ser.Outputs[0].State) {
		t.Fatalf("state sizes: %d vs %d", len(joined), len(ser.Outputs[0].State))
	}
	for i := range joined {
		if math.Float64bits(joined[i]) != math.Float64bits(ser.Outputs[0].State[i]) {
			t.Fatalf("state differs at %d: %g vs %g", i, joined[i], ser.Outputs[0].State[i])
		}
	}
}

func TestResidualOfExactSolutionIsRHS(t *testing.T) {
	// residual(u=0, v) must equal v.
	l := &level{nx: 4, ny: 4, nz: 4, zlo: 0, zhi: 4}
	n := 64
	u := make([]float64, n)
	v := make([]float64, n)
	for i := range v {
		v[i] = float64(i%5) - 2
	}
	ghLo := make([]float64, 16)
	ghHi := make([]float64, 16)
	r := make([]float64, n)
	residual(fpe.New(), l, u, v, ghLo, ghHi, r)
	for i := range r {
		if r[i] != v[i] {
			t.Fatalf("residual[%d] = %g, want %g", i, r[i], v[i])
		}
	}
}

func TestOperatorAnnihilatesConstants(t *testing.T) {
	// A applied to a constant field is zero (periodic Laplacian nullspace).
	l := &level{nx: 4, ny: 4, nz: 4, zlo: 0, zhi: 4}
	n := 64
	u := make([]float64, n)
	for i := range u {
		u[i] = 7.5
	}
	ghost := make([]float64, 16)
	for i := range ghost {
		ghost[i] = 7.5
	}
	v := make([]float64, n)
	r := make([]float64, n)
	residual(fpe.New(), l, u, v, ghost, ghost, r)
	for i := range r {
		if math.Abs(r[i]) > 1e-12 {
			t.Fatalf("residual[%d] = %g for constant field", i, r[i])
		}
	}
}

func TestGhostsPeriodicWrapSerial(t *testing.T) {
	l := &level{nx: 2, ny: 2, nz: 3, zlo: 0, zhi: 3}
	a := make([]float64, 12)
	for i := range a {
		a[i] = float64(i)
	}
	var comm *simmpi.Comm // not used on the replicated path
	lo, hi := l.ghosts(comm, 0, a)
	// ghostLo = top plane (8..11), ghostHi = bottom plane (0..3).
	if lo[0] != 8 || lo[3] != 11 || hi[0] != 0 || hi[3] != 3 {
		t.Fatalf("ghosts: lo=%v hi=%v", lo, hi)
	}
}

func TestGhostExchangeDistributed(t *testing.T) {
	// 4 ranks, 8 planes of 1x1: rank r owns planes 2r, 2r+1 holding their
	// global index as value.
	_, err := simmpi.Run(simmpi.Config{Procs: 4}, func(c *simmpi.Comm) error {
		l := &level{nx: 1, ny: 1, nz: 8, distributed: true,
			zlo: 2 * c.Rank(), zhi: 2*c.Rank() + 2,
			below: make([]float64, 1), above: make([]float64, 1)}
		a := []float64{float64(2 * c.Rank()), float64(2*c.Rank() + 1)}
		lo, hi := l.ghosts(c, 10, a)
		wantLo := float64((2*c.Rank() - 1 + 8) % 8)
		wantHi := float64((2*c.Rank() + 2) % 8)
		if lo[0] != wantLo || hi[0] != wantHi {
			t.Errorf("rank %d: lo=%v (want %g) hi=%v (want %g)",
				c.Rank(), lo, wantLo, hi, wantHi)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestExponentInjectionCorruptsResidual(t *testing.T) {
	clean := apps.Execute(App{}, "S", 1, nil, apps.DefaultTimeout)
	if clean.Err != nil {
		t.Fatal(clean.Err)
	}
	bad := apps.Execute(App{}, "S", 1, map[int][]fpe.Injection{
		0: {{Class: fpe.Common, Index: 5000, Bit: 62, Operand: 0}},
	}, apps.DefaultTimeout)
	if bad.Err != nil {
		return // crash/hang acceptable
	}
	if (App{}).Verify(clean.Outputs[0].Check, bad.Outputs[0].Check) {
		t.Fatalf("huge corruption passed checker: %v vs %v",
			clean.Outputs[0].Check, bad.Outputs[0].Check)
	}
}

func TestConformanceClassA(t *testing.T) {
	if testing.Short() {
		t.Skip("larger class skipped in -short mode")
	}
	apptest.Conformance(t, App{}, apptest.Options{
		Class:      "A",
		Procs:      []int{4},
		WantUnique: false,
	})
}

// TestPooledRunAllocBounded pins a steady-state run's allocation at 1.25 x
// what it measured when the pins were set.  With the working set drawn from
// the arena and the level headers on the stack, only a small object or
// two a rank is left (its Check), so a make put back into the run fails it.
func TestPooledRunAllocBounded(t *testing.T) {
	apptest.AllocBounded(t, App{}, map[int]apptest.Alloc{
		1:  {Bytes: 110, Objects: 3},
		4:  {Bytes: 140, Objects: 7},
		16: {Bytes: 260, Objects: 22},
		32: {Bytes: 420, Objects: 42},
		64: {Bytes: 740, Objects: 82},
	})
}

func TestOpCountNearSerial(t *testing.T) {
	apptest.OpCountNearSerial(t, App{}, "")
	apptest.OpCountNearSerial(t, App{}, "A")
}
