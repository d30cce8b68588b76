package ft

import (
	"fmt"
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"resmod/internal/apps"
	"resmod/internal/apps/apptest"
	"resmod/internal/fpe"
)

func TestConformance(t *testing.T) {
	apptest.Conformance(t, App{}, apptest.Options{
		Procs:             []int{2, 4, 8},
		WantUnique:        true,
		MaxUniqueFraction: 0.25,
	})
}

// naiveDFT is the O(n^2) reference transform.
func naiveDFT(re, im []float64, inverse bool) ([]float64, []float64) {
	n := len(re)
	outRe := make([]float64, n)
	outIm := make([]float64, n)
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	for k := 0; k < n; k++ {
		for j := 0; j < n; j++ {
			ang := sign * 2 * math.Pi * float64(k*j) / float64(n)
			c, s := math.Cos(ang), math.Sin(ang)
			outRe[k] += re[j]*c - im[j]*s
			outIm[k] += re[j]*s + im[j]*c
		}
	}
	return outRe, outIm
}

func TestFFT1DMatchesNaiveDFT(t *testing.T) {
	for _, n := range []int{2, 4, 8, 16, 64} {
		re := make([]float64, n)
		im := make([]float64, n)
		for i := range re {
			re[i] = math.Sin(float64(i)*1.3) + 0.2
			im[i] = math.Cos(float64(i) * 0.7)
		}
		wantRe, wantIm := naiveDFT(re, im, false)
		tw := makeTwiddles(n)
		fft1d(fpe.New(), tw, re, im, 0, 1, n, false)
		for i := 0; i < n; i++ {
			if math.Abs(re[i]-wantRe[i]) > 1e-9 || math.Abs(im[i]-wantIm[i]) > 1e-9 {
				t.Fatalf("n=%d: fft[%d] = (%g,%g), want (%g,%g)",
					n, i, re[i], im[i], wantRe[i], wantIm[i])
			}
		}
	}
}

func TestFFTRoundTripProperty(t *testing.T) {
	f := func(raw [16]int8) bool {
		n := 16
		re := make([]float64, n)
		im := make([]float64, n)
		orig := make([]float64, n)
		for i := range re {
			re[i] = float64(raw[i]) / 16
			orig[i] = re[i]
		}
		fc := fpe.New()
		tw := makeTwiddles(n)
		fft1d(fc, tw, re, im, 0, 1, n, false)
		fft1d(fc, tw, re, im, 0, 1, n, true)
		for i := range re {
			if math.Abs(re[i]/float64(n)-orig[i]) > 1e-9 || math.Abs(im[i]/float64(n)) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestFFTStridedEqualsContiguous(t *testing.T) {
	// The serial z-FFT runs strided; it must compute exactly what a
	// contiguous FFT computes (this is what makes serial and parallel
	// common computation identical).
	const n, stride = 8, 5
	reS := make([]float64, n*stride)
	imS := make([]float64, n*stride)
	reC := make([]float64, n)
	imC := make([]float64, n)
	for i := 0; i < n; i++ {
		v := math.Sin(float64(i) * 2.1)
		w := math.Cos(float64(i) * 1.1)
		reS[i*stride], imS[i*stride] = v, w
		reC[i], imC[i] = v, w
	}
	tw := makeTwiddles(n)
	fft1d(fpe.New(), tw, reS, imS, 0, stride, n, false)
	fft1d(fpe.New(), tw, reC, imC, 0, 1, n, false)
	for i := 0; i < n; i++ {
		if math.Float64bits(reS[i*stride]) != math.Float64bits(reC[i]) ||
			math.Float64bits(imS[i*stride]) != math.Float64bits(imC[i]) {
			t.Fatalf("strided and contiguous FFT differ at %d", i)
		}
	}
}

func TestParsevalEnergyConservation(t *testing.T) {
	const n = 64
	re := make([]float64, n)
	im := make([]float64, n)
	var spatial float64
	for i := range re {
		re[i] = math.Sin(float64(i))
		spatial += re[i] * re[i]
	}
	tw := makeTwiddles(n)
	fft1d(fpe.New(), tw, re, im, 0, 1, n, false)
	var spectral float64
	for i := range re {
		spectral += re[i]*re[i] + im[i]*im[i]
	}
	if math.Abs(spectral/float64(n)-spatial) > 1e-9 {
		t.Fatalf("Parseval violated: spatial=%g spectral/n=%g", spatial, spectral/float64(n))
	}
}

func TestHashInitScaleIndependent(t *testing.T) {
	// The same global index must give the same value regardless of which
	// rank computes it (same input at every scale).
	a1, b1 := hashInit(7, 12345)
	a2, b2 := hashInit(7, 12345)
	if a1 != a2 || b1 != b2 {
		t.Fatal("hashInit not deterministic")
	}
	a3, _ := hashInit(7, 12346)
	if a1 == a3 {
		t.Fatal("hashInit ignores index")
	}
	if a1 < 0 || a1 >= 1 || b1 < 0 || b1 >= 1 {
		t.Fatalf("hashInit out of range: %g %g", a1, b1)
	}
}

func TestKbar2Folding(t *testing.T) {
	// kbar2 folds frequencies above n/2 to negative wavenumbers.
	if kbar2(0, 64) != 0 || kbar2(1, 64) != 1 || kbar2(63, 64) != 1 || kbar2(32, 64) != 1024 {
		t.Fatalf("kbar2 folding wrong: %g %g %g %g",
			kbar2(0, 64), kbar2(1, 64), kbar2(63, 64), kbar2(32, 64))
	}
}

func TestSerialParallelChecksumAgreement(t *testing.T) {
	ser := apps.Execute(App{}, "S", 1, nil, apps.DefaultTimeout)
	if ser.Err != nil {
		t.Fatal(ser.Err)
	}
	par := apps.Execute(App{}, "S", 4, nil, apps.DefaultTimeout)
	if par.Err != nil {
		t.Fatal(par.Err)
	}
	sc, pc := ser.Outputs[0].Check, par.Outputs[0].Check
	if len(sc) != len(pc) || len(sc) != 2*classes["S"].iters {
		t.Fatalf("check lengths: %d vs %d", len(sc), len(pc))
	}
	for i := range sc {
		if apps.RelErr(sc[i], pc[i], 1e-30) > 1e-12 {
			t.Fatalf("checksum %d: serial %g vs parallel %g", i, sc[i], pc[i])
		}
	}
}

func TestUniqueFractionInPaperRange(t *testing.T) {
	// Table 1 shows FT's parallel-unique computation is large (roughly
	// 10-18% of the execution).  Our op-count proxy should land near that.
	par := apps.Execute(App{}, "S", 4, nil, apps.DefaultTimeout)
	if par.Err != nil {
		t.Fatal(par.Err)
	}
	var total fpe.Counts
	for _, c := range par.Ctxs {
		cc := c.Counts()
		total.Common += cc.Common
		total.Unique += cc.Unique
	}
	f := total.UniqueFraction()
	if f < 0.05 || f > 0.25 {
		t.Fatalf("FT unique fraction = %.3f, want within [0.05, 0.25]", f)
	}
}

func TestEvolveDampsChecksum(t *testing.T) {
	// The Gaussian evolution damps high frequencies, so successive
	// checksums change monotonically in magnitude trendwise; at minimum
	// they must differ between iterations (the run is actually evolving).
	res := apps.Execute(App{}, "S", 1, nil, apps.DefaultTimeout)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	c := res.Outputs[0].Check
	if c[0] == c[2] && c[1] == c[3] {
		t.Fatal("checksums identical across iterations; evolution not applied")
	}
}

// TestPooledRunAllocBounded pins a steady-state run's allocation at 1.25 x
// what it measured when the pins were set.  With the working set drawn from
// the arena, only a few small objects are left (the run's closure, its
// Check), so a make put back into the run fails it.
func TestPooledRunAllocBounded(t *testing.T) {
	apptest.AllocBounded(t, App{}, map[int]apptest.Alloc{
		1:  {Bytes: 100, Objects: 2},
		4:  {Bytes: 100, Objects: 2},
		16: {Bytes: 100, Objects: 2},
		64: {Bytes: 100, Objects: 2},
	})
}

// TestCachedTwiddlesReadOnly: the twiddle tables every run shares come
// through an SDC trial and a Failure trial unchanged.
func TestCachedTwiddlesReadOnly(t *testing.T) {
	apptest.SetupReadOnly(t, App{}, 4, func() uint64 {
		var sum uint64 // of the tables' digests: Range's order is not fixed
		twiddleTables.Range(func(_, tw any) bool {
			for s := range tw.(*twiddles).re {
				sum += apptest.Digest(tw.(*twiddles).re[s], tw.(*twiddles).im[s])
			}
			return true
		})
		return sum
	})
}

// TestCachedEvolutionReadOnly: the evolution factors every run shares, in
// both layouts, come through an SDC trial and a Failure trial unchanged.
func TestCachedEvolutionReadOnly(t *testing.T) {
	apps.Execute(App{}, App{}.DefaultClass(), 1, nil, apps.DefaultTimeout) // the serial layout's table
	apptest.SetupReadOnly(t, App{}, 4, func() uint64 {
		var sum uint64 // of the tables' digests: Range's order is not fixed
		evolutions.Range(func(_, f any) bool {
			for _, table := range f.([][]float64) {
				sum += apptest.Digest(table)
			}
			return true
		})
		return sum
	})
}

func TestOpCountNearSerial(t *testing.T) { apptest.OpCountNearSerial(t, App{}, "") }

// TestFFTLinesMatchFFT1D: for every layout of lines the runs transform — x
// lines, y lines, the serial run's strided z lines and a parallel rank's
// contiguous ones — in both directions, a batch equals fft1d line by line
// to the bit.  With no injection due the batch is one window; with
// triggers due — one in the first, a middle or the last line, two in one
// line, in adjacent lines, in the first and the last, three spread out —
// they fire on the same ops with the same operands, the counts agree, and
// only the lines that hold a trigger take the per-op path.
func TestFFTLinesMatchFFT1D(t *testing.T) {
	pr := classes["S"]
	nx, ny, nz := pr.nx, pr.ny, pr.nz
	layouts := []struct {
		name                                 string
		offset, stride, n, count, lineStride int
	}{
		{"x lines", 3 * ny * nx, 1, nx, ny, nx},
		{"y lines", 3 * ny * nx, nx, ny, nx, 1},
		{"serial z lines", 0, ny * nx, nz, ny * nx, 1},
		{"parallel z lines", 0, 1, nz, nx / 4 * ny, nz},
	}
	for _, l := range layouts {
		c := l.count
		cases := [][]int{ // the line of each trigger
			nil, {0}, {c / 2}, {c - 1},
			{c / 2, c / 2}, {c/2 - 1, c / 2}, {0, c - 1}, {c / 4, c / 2, 3 * c / 4},
		}
		for _, inverse := range []bool{false, true} {
			lineOps := 10 * butterflies(l.n)
			for _, lines := range cases {
				what := fmt.Sprintf("%s inverse=%v triggers in lines %v", l.name, inverse, lines)
				var plan []fpe.Injection
				perOp := map[int]bool{}
				for i, line := range lines {
					at := uint64(line)*lineOps + uint64(i+1)*lineOps/uint64(len(lines)+1)
					plan = append(plan, fpe.Injection{Class: fpe.Common, Index: at, Bit: uint(51 - i)})
					perOp[line] = true
				}
				tw := twiddlesFor(l.n)
				re, im := make([]float64, nx*ny*nz), make([]float64, nx*ny*nz)
				for i := range re {
					re[i], im[i] = hashInit(pr.seed, uint64(i))
				}
				wantRe, wantIm := append([]float64(nil), re...), append([]float64(nil), im...)
				want := fpe.NewWithPlan(plan)
				for i := 0; i < l.count; i++ {
					fft1d(want, tw, wantRe, wantIm, l.offset+i*l.lineStride, l.stride, l.n, inverse)
				}
				got := fpe.NewWithPlan(plan)
				fftLines(got, tw, re, im, l.offset, l.stride, l.n, l.count, l.lineStride, inverse)

				if !apps.SameBits(re, wantRe) || !apps.SameBits(im, wantIm) {
					t.Fatalf("%s: batch differs from fft1d line by line", what)
				}
				if g, w := got.KindCounts(), want.KindCounts(); g != w {
					t.Fatalf("%s: counts %+v, line by line %+v", what, g, w)
				}
				if g, w := got.Records(), want.Records(); !reflect.DeepEqual(g, w) || len(g) != len(plan) {
					t.Fatalf("%s: fired %+v, line by line %+v", what, g, w)
				}
				if g, w := got.Tallied(), got.Counts().Total()-uint64(len(perOp))*lineOps; g != w {
					t.Fatalf("%s: %d ops windowed, want %d (all but the %d lines with a trigger)", what, g, w, len(perOp))
				}
			}
		}
	}
}
