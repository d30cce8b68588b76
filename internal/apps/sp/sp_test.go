package sp

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
		MaxUniqueFraction: 0.35,
	})
}

func TestThomasSolvesTridiagonal(t *testing.T) {
	// Solve, then verify A x = d by applying the operator.
	const n = 16
	lambda := 0.4
	d := make([]float64, n)
	orig := make([]float64, n)
	for i := range d {
		d[i] = math.Sin(float64(i)*0.9) + 0.3
		orig[i] = d[i]
	}
	cp := make([]float64, n)
	thomas(fpe.New(), d, 0, 1, n, lambda, cp)
	b := 1 + 2*lambda
	a := -lambda
	for i := 0; i < n; i++ {
		got := b * d[i]
		if i > 0 {
			got += a * d[i-1]
		}
		if i < n-1 {
			got += a * d[i+1]
		}
		if math.Abs(got-orig[i]) > 1e-10 {
			t.Fatalf("A x != d at %d: %g vs %g", i, got, orig[i])
		}
	}
}

func TestThomasStridedMatchesContiguous(t *testing.T) {
	const n, stride = 8, 3
	lambda := 0.25
	c := make([]float64, n)
	s := make([]float64, n*stride)
	for i := 0; i < n; i++ {
		v := float64(i*i%7) - 2
		c[i] = v
		s[i*stride] = v
	}
	cp1 := make([]float64, n)
	cp2 := make([]float64, n)
	thomas(fpe.New(), c, 0, 1, n, lambda, cp1)
	thomas(fpe.New(), s, 0, stride, n, lambda, cp2)
	for i := 0; i < n; i++ {
		if math.Float64bits(c[i]) != math.Float64bits(s[i*stride]) {
			t.Fatalf("strided Thomas differs at %d", i)
		}
	}
}

func TestADIDiffusesTowardMean(t *testing.T) {
	// Implicit diffusion damps the oscillatory part: the RMS after the run
	// must be below the initial RMS, and the field must stay finite.
	res := apps.Execute(App{}, "S", 1, nil, apps.DefaultTimeout)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	rms := res.Outputs[0].Check[0]
	if rms <= 0 || rms >= 0.7 {
		t.Fatalf("rms = %g", rms)
	}
	if !apps.AllFinite(res.Outputs[0].State) {
		t.Fatal("state not finite")
	}
}

func TestSerialParallelAgreement(t *testing.T) {
	ser := apps.Execute(App{}, "S", 1, nil, apps.DefaultTimeout)
	if ser.Err != nil {
		t.Fatal(ser.Err)
	}
	par := apps.Execute(App{}, "S", 8, nil, apps.DefaultTimeout)
	if par.Err != nil {
		t.Fatal(par.Err)
	}
	for i, want := range ser.Outputs[0].Check {
		if apps.RelErr(want, par.Outputs[0].Check[i], 1e-30) > 1e-10 {
			t.Fatalf("check %d: %g vs %g", i, want, par.Outputs[0].Check[i])
		}
	}
}

func TestLineSolveSpreadsInjection(t *testing.T) {
	// An implicit solve propagates a corrupted value along the entire
	// line: a mid-run exponent flip should corrupt the checker values.
	clean := apps.Execute(App{}, "S", 1, nil, apps.DefaultTimeout)
	if clean.Err != nil {
		t.Fatal(clean.Err)
	}
	total := clean.Ctxs[0].Counts().Common
	caught := false
	for _, frac := range []uint64{2, 3, 4} {
		bad := apps.Execute(App{}, "S", 1, map[int][]fpe.Injection{
			0: {{Class: fpe.Common, Index: total * frac / 6, Bit: 62, Operand: 0}},
		}, apps.DefaultTimeout)
		if bad.Err != nil || !(App{}).Verify(clean.Outputs[0].Check, bad.Outputs[0].Check) {
			caught = true
			break
		}
	}
	if !caught {
		t.Fatal("no mid-run corruption caught")
	}
}

// TestPooledRunAllocBounded pins a steady-state run's allocation at 1.25 x
// what it measured when the pins were set: its working set, made once.
func TestPooledRunAllocBounded(t *testing.T) {
	apptest.AllocBounded(t, App{}, map[int]apptest.Alloc{
		1:  {Bytes: 329000, Objects: 18},
		4:  {Bytes: 826000, Objects: 71},
		16: {Bytes: 849000, Objects: 256},
		64: {Bytes: 1160000, Objects: 993},
	})
}
