package lu

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

func TestSSORReducesResidual(t *testing.T) {
	res := apps.Execute(App{}, "W", 1, nil, apps.DefaultTimeout)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	rnorm := res.Outputs[0].Check[0]
	unorm := res.Outputs[0].Check[1]
	// The RMS of the rhs field is O(0.5); after niter sweeps the residual
	// must be well below it, and the solution must be non-trivial.
	if rnorm <= 0 || rnorm > 0.05 {
		t.Fatalf("rnorm = %g, want well below the rhs scale", rnorm)
	}
	if unorm <= 0.01 {
		t.Fatalf("unorm = %g, solution looks trivial", unorm)
	}
}

func TestSerialParallelBitIdenticalState(t *testing.T) {
	// The sweeps compute every point from the same inputs in the same
	// order at every scale, so reassembled parallel state is bit-identical
	// to serial state.
	ser := apps.Execute(App{}, "W", 1, nil, apps.DefaultTimeout)
	if ser.Err != nil {
		t.Fatal(ser.Err)
	}
	const p = 8
	par := apps.Execute(App{}, "W", p, nil, apps.DefaultTimeout)
	if par.Err != nil {
		t.Fatal(par.Err)
	}
	var joined []float64
	for r := 0; r < p; r++ {
		joined = append(joined, par.Outputs[r].State...)
	}
	for i := range joined {
		if math.Float64bits(joined[i]) != math.Float64bits(ser.Outputs[0].State[i]) {
			t.Fatalf("state differs at %d", i)
		}
	}
}

// at reads a(x, y, zl) of the slab, zero outside it: the sweeps' reference
// read, with no ghosts.
func at(s *slab, a []float64, x, y, zl int) float64 {
	if x < 0 || x >= s.nx || y < 0 || y >= s.ny || zl < 0 || zl >= s.nzLoc {
		return 0
	}
	return a[(zl*s.ny+y)*s.nx+x]
}

func TestForwardSweepSolvesLowerSystem(t *testing.T) {
	// forwardSweep computes v with (D + wL) v = r; reconstruct r from v.
	pr := classes["W"]
	cf := makeCoeffs(pr)
	s := &slab{nx: 4, ny: 4, nzLoc: 4}
	r := make([]float64, 64)
	for i := range r {
		r[i] = float64(i%7) - 3
	}
	v := make([]float64, len(r))
	if _, err := simmpi.Run(simmpi.Config{Procs: 1}, func(c *simmpi.Comm) error {
		forwardSweep(fpe.New(), c, s, cf, pr.omega, r, nil, v)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for zl := 0; zl < 4; zl++ {
		for y := 0; y < 4; y++ {
			for x := 0; x < 4; x++ {
				lsum := cf.aW*at(s, v, x-1, y, zl) +
					cf.aS*at(s, v, x, y-1, zl) +
					cf.aB*at(s, v, x, y, zl-1)
				got := cf.d*at(s, v, x, y, zl) + pr.omega*lsum
				if math.Abs(got-at(s, r, x, y, zl)) > 1e-10 {
					t.Fatalf("(D+wL)v != r at (%d,%d,%d): %g vs %g",
						x, y, zl, got, at(s, r, x, y, zl))
				}
			}
		}
	}
}

func TestBackwardSweepSolvesUpperSystem(t *testing.T) {
	// backwardSweep computes w with (D + wU) w = D v; reconstruct D v.
	pr := classes["W"]
	cf := makeCoeffs(pr)
	s := &slab{nx: 3, ny: 3, nzLoc: 3}
	v := make([]float64, 27)
	for i := range v {
		v[i] = math.Sin(float64(i))
	}
	w := make([]float64, len(v))
	if _, err := simmpi.Run(simmpi.Config{Procs: 1}, func(c *simmpi.Comm) error {
		backwardSweep(fpe.New(), c, s, cf, pr.omega, v, nil, w)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for zl := 2; zl >= 0; zl-- {
		for y := 2; y >= 0; y-- {
			for x := 2; x >= 0; x-- {
				usum := cf.aE*at(s, w, x+1, y, zl) +
					cf.aN*at(s, w, x, y+1, zl) +
					cf.aT*at(s, w, x, y, zl+1)
				got := cf.d*at(s, w, x, y, zl) + pr.omega*usum
				want := cf.d * at(s, v, x, y, zl)
				if math.Abs(got-want) > 1e-10 {
					t.Fatalf("(D+wU)w != Dv at (%d,%d,%d): %g vs %g", x, y, zl, got, want)
				}
			}
		}
	}
}

func TestApplyADiagonalDominance(t *testing.T) {
	cf := makeCoeffs(classes["W"])
	off := math.Abs(cf.aW) + math.Abs(cf.aE) + math.Abs(cf.aS) +
		math.Abs(cf.aN) + math.Abs(cf.aB) + math.Abs(cf.aT)
	if cf.d <= off {
		t.Fatalf("operator not strictly diagonally dominant: d=%g off=%g", cf.d, off)
	}
}

func TestExponentInjectionCorruptsNorms(t *testing.T) {
	clean := apps.Execute(App{}, "W", 1, nil, apps.DefaultTimeout)
	if clean.Err != nil {
		t.Fatal(clean.Err)
	}
	// Try several late dynamic indices: at least one exponent flip in live
	// data must be caught by the checker.
	total := clean.Ctxs[0].Counts().Common
	for _, frac := range []uint64{2, 3, 4, 5} {
		bad := apps.Execute(App{}, "W", 1, map[int][]fpe.Injection{
			0: {{Class: fpe.Common, Index: total * frac / 6, Bit: 62, Operand: 1}},
		}, apps.DefaultTimeout)
		if bad.Err != nil {
			return // crash/hang is a sufficiently severe outcome
		}
		if !(App{}).Verify(clean.Outputs[0].Check, bad.Outputs[0].Check) {
			return // detected as SDC
		}
	}
	t.Fatal("no late exponent-bit corruption was caught by the checker")
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
// the arena, only a few small objects are left (the run's closure, its
// Check), so a make put back into the run fails it.
func TestPooledRunAllocBounded(t *testing.T) {
	apptest.AllocBounded(t, App{}, map[int]apptest.Alloc{
		1:  {Bytes: 120, Objects: 3},
		4:  {Bytes: 180, Objects: 7},
		16: {Bytes: 420, Objects: 22},
		64: {Bytes: 1380, Objects: 82},
	})
}

// TestCachedRHSReadOnly: the right-hand side every run reads its slab of
// comes through an SDC trial and a Failure trial unchanged.
func TestCachedRHSReadOnly(t *testing.T) {
	apptest.SetupReadOnly(t, App{}, 4, func() uint64 {
		var sum uint64 // of the fields' digests: Range's order is not fixed
		rhsFields.Range(func(_, f any) bool {
			sum += apptest.Digest(f.([]float64))
			return true
		})
		return sum
	})
}

func TestOpCountNearSerial(t *testing.T) { apptest.OpCountNearSerial(t, App{}, "") }
