package ft

import (
	"math"
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
// what it measured when the pins were set: its working set, made once.
func TestPooledRunAllocBounded(t *testing.T) {
	apptest.AllocBounded(t, App{}, map[int]apptest.Alloc{
		1:  {Bytes: 574000, Objects: 26},
		4:  {Bytes: 1070000, Objects: 100},
		16: {Bytes: 1080000, Objects: 371},
		64: {Bytes: 1370000, Objects: 1460},
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

func TestOpCountNearSerial(t *testing.T) { apptest.OpCountNearSerial(t, App{}, "") }
