package cg

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
		MaxUniqueFraction: 0.10,
	})
}

func TestMatrixIsSymmetricDiagonallyDominant(t *testing.T) {
	pr := classes["S"]
	full := buildMatrix(pr, 0, pr.n)
	// Reconstruct a dense map for symmetry checking.
	get := func(i, j int) float64 {
		for k := full.rowPtr[i]; k < full.rowPtr[i+1]; k++ {
			if full.colIdx[k] == j {
				return full.vals[k]
			}
		}
		return 0
	}
	for i := 0; i < pr.n; i += 37 { // sampled rows
		var off float64
		for k := full.rowPtr[i]; k < full.rowPtr[i+1]; k++ {
			j := full.colIdx[k]
			if j == i {
				continue
			}
			off += math.Abs(full.vals[k])
			if got := get(j, i); got != full.vals[k] {
				t.Fatalf("A[%d,%d]=%g but A[%d,%d]=%g", i, j, full.vals[k], j, i, got)
			}
		}
		if diag := get(i, i); diag <= off {
			t.Fatalf("row %d not diagonally dominant: diag=%g off=%g", i, diag, off)
		}
	}
}

func TestMatrixSliceMatchesFull(t *testing.T) {
	pr := classes["S"]
	full := buildMatrix(pr, 0, pr.n)
	part := buildMatrix(pr, 256, 512)
	for i := 256; i < 512; i += 17 {
		fLo, fHi := full.rowPtr[i], full.rowPtr[i+1]
		pLo, pHi := part.rowPtr[i-256], part.rowPtr[i-256+1]
		if fHi-fLo != pHi-pLo {
			t.Fatalf("row %d nnz differs: %d vs %d", i, fHi-fLo, pHi-pLo)
		}
		for k := 0; k < fHi-fLo; k++ {
			if full.colIdx[fLo+k] != part.colIdx[pLo+k] || full.vals[fLo+k] != part.vals[pLo+k] {
				t.Fatalf("row %d entry %d differs", i, k)
			}
		}
	}
}

func TestZetaConvergesToEigenvalueScale(t *testing.T) {
	// zeta estimates shift + 1/lambda_min-ish; sanity: it is finite, above
	// the shift, and stable across runs.
	res := apps.Execute(App{}, "S", 1, nil, apps.DefaultTimeout)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	zeta := res.Outputs[0].Check[0]
	if math.IsNaN(zeta) || zeta <= classes["S"].shift {
		t.Fatalf("zeta = %g", zeta)
	}
}

func TestSpmvAgainstDense(t *testing.T) {
	pr := params{n: 32, nnzHalf: 3, outer: 1, inner: 1, shift: 5, seed: 9}
	m := buildMatrix(pr, 0, pr.n)
	x := make([]float64, pr.n)
	for i := range x {
		x[i] = float64(i%7) - 3
	}
	w := make([]float64, pr.n)
	m.spmv(fpe.New(), x, w)
	// Dense reference.
	for i := 0; i < pr.n; i++ {
		var want float64
		for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
			want += m.vals[k] * x[m.colIdx[k]]
		}
		if math.Abs(w[i]-want) > 1e-12*math.Abs(want)+1e-15 {
			t.Fatalf("spmv row %d = %g, want %g", i, w[i], want)
		}
	}
}

func TestInjectionCanChangeZeta(t *testing.T) {
	// A high-exponent-bit flip early in the run should corrupt zeta (SDC).
	clean := apps.Execute(App{}, "S", 1, nil, apps.DefaultTimeout)
	if clean.Err != nil {
		t.Fatal(clean.Err)
	}
	bad := apps.Execute(App{}, "S", 1, map[int][]fpe.Injection{
		0: {{Class: fpe.Common, Index: 1000, Bit: 62, Operand: 0}},
	}, apps.DefaultTimeout)
	if bad.Err != nil {
		return // a crash/hang is an acceptable severe outcome
	}
	if (App{}).Verify(clean.Outputs[0].Check, bad.Outputs[0].Check) {
		t.Fatalf("exponent-bit corruption passed the checker: golden=%v got=%v",
			clean.Outputs[0].Check, bad.Outputs[0].Check)
	}
}

func TestLowBitInjectionOftenMasked(t *testing.T) {
	// A low-mantissa-bit flip late in the run usually passes the checker —
	// the masking behaviour behind the paper's high success rates.
	clean := apps.Execute(App{}, "S", 1, nil, apps.DefaultTimeout)
	if clean.Err != nil {
		t.Fatal(clean.Err)
	}
	total := clean.Ctxs[0].Counts().Common
	masked := 0
	const trials = 8
	for i := 0; i < trials; i++ {
		res := apps.Execute(App{}, "S", 1, map[int][]fpe.Injection{
			0: {{Class: fpe.Common, Index: total - 50 - uint64(i)*13, Bit: 2, Operand: 0}},
		}, apps.DefaultTimeout)
		if res.Err == nil && (App{}).Verify(clean.Outputs[0].Check, res.Outputs[0].Check) {
			masked++
		}
	}
	if masked == 0 {
		t.Fatal("no low-bit late injection was masked; masking behaviour broken")
	}
}

func TestUnknownClass(t *testing.T) {
	res := apps.Execute(App{}, "Z", 1, nil, apps.DefaultTimeout)
	if res.Err == nil {
		t.Fatal("unknown class accepted")
	}
}

func TestBadProcs(t *testing.T) {
	res := apps.Execute(App{}, "S", 3, nil, apps.DefaultTimeout)
	if res.Err == nil {
		t.Fatal("non-power-of-two procs accepted")
	}
}

// TestPooledRunAllocBounded pins a steady-state run's allocation at 1.25 x
// what it measured when the pins were set: its working set, made once.
func TestPooledRunAllocBounded(t *testing.T) {
	apptest.AllocBounded(t, App{}, map[int]apptest.Alloc{
		1:  {Bytes: 62300, Objects: 22},
		4:  {Bytes: 105000, Objects: 66},
		16: {Bytes: 228000, Objects: 235},
		64: {Bytes: 733000, Objects: 912},
	})
}

// TestCachedBlocksReadOnly: the matrix blocks every run shares come through
// an SDC trial and a Failure trial unchanged.
func TestCachedBlocksReadOnly(t *testing.T) {
	apptest.SetupReadOnly(t, App{}, 4, func() uint64 {
		var sum uint64 // of the blocks' digests: Range's order is not fixed
		blocks.Range(func(_, m any) bool {
			sum += apptest.Digest(m.(*csr).rowPtr, m.(*csr).colIdx, m.(*csr).vals)
			return true
		})
		return sum
	})
}

func TestOpCountNearSerial(t *testing.T) { apptest.OpCountNearSerial(t, App{}, "") }
