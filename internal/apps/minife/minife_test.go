package minife

import (
	"math"
	"testing"

	"resmod/internal/apps"
	"resmod/internal/apps/apptest"
	"resmod/internal/fpe"
)

func TestConformance(t *testing.T) {
	apptest.Conformance(t, App{}, apptest.Options{
		Procs:             []int{2, 4, 8},
		WantUnique:        true,
		MaxUniqueFraction: 0.05,
	})
}

func TestConformanceClass300(t *testing.T) {
	if testing.Short() {
		t.Skip("larger class skipped in -short mode")
	}
	apptest.Conformance(t, App{}, apptest.Options{
		Class:             "300",
		Procs:             []int{4},
		WantUnique:        true,
		MaxUniqueFraction: 0.05,
	})
}

func TestAssembledOperatorIsSymmetric(t *testing.T) {
	pr := classes["30"]
	st := assemble(fpe.New(), nil, pr, 0, pr.nz)
	// Coupling symmetry: e at (x,y,z) equals w at (x+1,y,z), etc.
	for zl := 0; zl < pr.nz; zl += 11 {
		for y := 0; y < pr.ny; y++ {
			for x := 0; x < pr.nx-1; x++ {
				if st.e[st.idx(x, y, zl)] != st.w[st.idx(x+1, y, zl)] {
					t.Fatalf("x-coupling asymmetric at (%d,%d,%d)", x, y, zl)
				}
			}
		}
	}
	for zl := 0; zl < pr.nz-1; zl += 7 {
		for y := 0; y < pr.ny; y++ {
			for x := 0; x < pr.nx; x++ {
				if st.t[st.idx(x, y, zl)] != st.b[st.idx(x, y, zl+1)] {
					t.Fatalf("z-coupling asymmetric at (%d,%d,%d)", x, y, zl)
				}
			}
		}
	}
}

func TestAssembledOperatorDiagonallyDominant(t *testing.T) {
	pr := classes["30"]
	st := assemble(fpe.New(), nil, pr, 0, pr.nz)
	for i := 0; i < len(st.center); i += 13 {
		off := math.Abs(st.w[i]) + math.Abs(st.e[i]) + math.Abs(st.s[i]) +
			math.Abs(st.n[i]) + math.Abs(st.b[i]) + math.Abs(st.t[i])
		// Interior nodes are weakly dominant up to assembly rounding.
		if st.center[i] < off-1e-9 {
			t.Fatalf("node %d: center %g < off-diagonal sum %g", i, st.center[i], off)
		}
	}
}

func TestAssemblySliceMatchesFull(t *testing.T) {
	// A rank's assembled slab must equal the same rows of the full
	// assembly (scale-invariant operator).
	pr := classes["30"]
	full := assemble(fpe.New(), nil, pr, 0, pr.nz)
	part := assemble(fpe.New(), nil, pr, 16, 32)
	sz := pr.nx * pr.ny
	for i := 0; i < 16*sz; i++ {
		gi := 16*sz + i
		if full.center[gi] != part.center[i] || full.t[gi] != part.t[i] || full.b[gi] != part.b[i] {
			t.Fatalf("assembled slab differs from full assembly at local %d", i)
		}
	}
}

func TestCGReducesResidual(t *testing.T) {
	res := apps.Execute(App{}, "30", 1, nil, apps.DefaultTimeout)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	rnorm, energy := res.Outputs[0].Check[0], res.Outputs[0].Check[1]
	// ||f|| = sqrt(#loaded nodes); residual must have dropped well below.
	f0 := math.Sqrt(float64(4 * 4 * 32))
	if rnorm <= 0 || rnorm > f0/10 {
		t.Fatalf("rnorm = %g, initial %g: CG barely converged", rnorm, f0)
	}
	if energy <= 0 {
		t.Fatalf("energy = %g, want positive (SPD operator)", energy)
	}
}

func TestExponentInjectionCaught(t *testing.T) {
	clean := apps.Execute(App{}, "30", 1, nil, apps.DefaultTimeout)
	if clean.Err != nil {
		t.Fatal(clean.Err)
	}
	total := clean.Ctxs[0].Counts().Common
	caught := false
	// Bit 62 turns any value whose top exponent bit is clear into a
	// ~2^512-scale monster; scan several dynamic indices because a flip of
	// an operand that is (or is later multiplied by) zero is masked.
	for _, frac := range []uint64{2, 3, 4, 5} {
		bad := apps.Execute(App{}, "30", 1, map[int][]fpe.Injection{
			0: {{Class: fpe.Common, Index: total * frac / 6, Bit: 62, Operand: 1}},
		}, apps.DefaultTimeout)
		if bad.Err != nil || !(App{}).Verify(clean.Outputs[0].Check, bad.Outputs[0].Check) {
			caught = true
			break
		}
	}
	if !caught {
		t.Fatal("no mid-run exponent corruption caught by the checker")
	}
}

// TestPooledRunAllocBounded pins a steady-state run's allocation at 1.25 x
// what it measured when the pins were set.  With the working set drawn from
// the arena and the stencil's header a value, only a small object or two a
// rank is left (its Check), so a make put back into the run fails it.
func TestPooledRunAllocBounded(t *testing.T) {
	apptest.AllocBounded(t, App{}, map[int]apptest.Alloc{
		1:  {Bytes: 120, Objects: 3},
		4:  {Bytes: 180, Objects: 7},
		16: {Bytes: 420, Objects: 22},
		64: {Bytes: 1380, Objects: 82},
	})
}

func TestOpCountNearSerial(t *testing.T) { apptest.OpCountNearSerial(t, App{}, "") }
