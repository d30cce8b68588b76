// Package ft implements the NPB FT benchmark: the time evolution of a 3-D
// partial differential equation solved spectrally.  The initial state is
// transformed once with a forward 3-D FFT; each time step scales the
// spectrum by Gaussian evolution factors and applies an inverse 3-D FFT,
// after which a strided checksum of the spatial field is accumulated
// (NAS Parallel Benchmarks 3.3, kernel FT).
//
// Parallel decomposition: 1-D slab.  Spatial data is distributed along z;
// the x- and y-direction FFTs are local, and a global transpose (alltoall)
// redistributes the array along x so the z-direction FFT becomes local —
// exactly the NPB FT transpose algorithm.  The transpose's pack and unpack
// stages are the benchmark's parallel-unique computation, which the paper's
// Table 1 shows is FT's distinguishing feature (10-18% of the execution):
// resmod instruments each staged element move so that, like a load/store
// operand in the binary-level injector, it can be struck by a bit flip.
//
// The serial execution performs the identical FFT arithmetic but runs the
// z-direction FFTs strided in place, with no transpose — the common
// computation is bit-comparable across scales while the parallel-unique
// computation exists only in parallel runs (paper Observation 1).
//
// A 3-D FFT runs its 1-D transforms a batch of lines at a time (fftLines):
// a plane's x lines, then its y lines, and all the z lines of the rank.
// A batch is one fpe window.  Lines that lie side by side (the y lines,
// and the serial run's strided z lines) run a butterfly of every line at
// a time, so the innermost loop walks contiguous memory; contiguous lines
// run one after another, their first stages a twiddle at a time.  A
// batch that holds a due injection splits at the line with the trigger:
// the lines before it run as one window, that line runs fft1d on the
// per-op path, and the lines after it go round again, so a trigger costs
// one line of per-op arithmetic.  The evolution and the normalization
// split the same way at the element that holds a trigger.
package ft

import (
	"math"
	"math/bits"
	"sync"

	"resmod/internal/apps"
	"resmod/internal/fpe"
	"resmod/internal/simmpi"
)

// params describes one problem class.
type params struct {
	nx, ny, nz int
	iters      int
	alpha      float64
	seed       uint64
	checkN     int // checksum sample count
}

var classes = map[string]params{
	"S": {nx: 64, ny: 2, nz: 64, iters: 3, alpha: 1e-6, seed: 0xF7_5, checkN: 512},
	"B": {nx: 128, ny: 2, nz: 128, iters: 2, alpha: 1e-6, seed: 0xF7_B, checkN: 512},
}

// App is the FT benchmark.
type App struct{}

func init() { apps.Register(App{}) }

// Name returns "FT".
func (App) Name() string { return "FT" }

// Classes returns the supported problem classes.
func (App) Classes() []string { return []string{"S", "B"} }

// DefaultClass returns "S".
func (App) DefaultClass() string { return "S" }

// MaxProcs returns the largest supported rank count: both the z and x
// dimensions must divide evenly among the ranks for the slab transpose.
func (App) MaxProcs(class string) int {
	p, ok := classes[class]
	if !ok {
		return 0
	}
	if p.nx < p.nz {
		return p.nx
	}
	return p.nz
}

// twiddles holds the per-stage twiddle factor tables for one FFT length:
// tw[s][j] is exp(-2*pi*i * j / 2^(s+1)) for j < 2^s.
type twiddles struct {
	re, im [][]float64
}

// twiddleTables caches the table of each FFT length: fault-free setup that
// every rank of every run shares, so read-only (see package apps).
var twiddleTables sync.Map // int (FFT length) -> *twiddles

func twiddlesFor(n int) *twiddles {
	if t, ok := twiddleTables.Load(n); ok {
		return t.(*twiddles)
	}
	t, _ := twiddleTables.LoadOrStore(n, makeTwiddles(n))
	return t.(*twiddles)
}

func makeTwiddles(n int) *twiddles {
	t := &twiddles{}
	for half := 1; half < n; half <<= 1 {
		re := make([]float64, half)
		im := make([]float64, half)
		for j := 0; j < half; j++ {
			ang := -math.Pi * float64(j) / float64(half)
			re[j] = math.Cos(ang)
			im[j] = math.Sin(ang)
		}
		t.re = append(t.re, re)
		t.im = append(t.im, im)
	}
	return t
}

// fft1d runs an in-place radix-2 FFT over the n elements at
// offset, offset+stride, ... of (re, im) on the per-op path, every
// butterfly op counted and injectable: the line of a batch that holds a
// due injection.  inverse selects the conjugate transform (without the 1/n
// scaling, applied separately).
func fft1d(fc *fpe.Ctx, tw *twiddles, re, im []float64, offset, stride, n int, inverse bool) {
	bitReverse(re, im, offset, stride, n, 1, 0)
	for stage, half := 0, 1; half < n; stage, half = stage+1, half<<1 {
		twRe, twIm := tw.re[stage], tw.im[stage]
		for start := 0; start < n; start += half << 1 {
			for j := 0; j < half; j++ {
				wr, wi := twRe[j], twIm[j]
				if inverse {
					wi = -wi
				}
				a := offset + (start+j)*stride
				b := offset + (start+j+half)*stride
				// v = w * x[b]
				vr := fc.Sub(fc.Mul(wr, re[b]), fc.Mul(wi, im[b]))
				vi := fc.Add(fc.Mul(wr, im[b]), fc.Mul(wi, re[b]))
				// butterfly
				re[b] = fc.Sub(re[a], vr)
				im[b] = fc.Sub(im[a], vi)
				re[a] = fc.Add(re[a], vr)
				im[a] = fc.Add(im[a], vi)
			}
		}
	}
}

// fftLines transforms count lines of length n, line l starting at
// offset+l*lineStride: a batch of the lines of one direction, a plane's or
// a whole transform's.  Each line is contiguous (stride 1), or the lines
// lie side by side (lineStride 1).  The lines before the next due
// injection run plain in one fpe window, the line that holds its trigger
// runs fft1d, and the lines after it go round again, so each trigger costs
// its own line on the per-op path and no other.
func fftLines(fc *fpe.Ctx, tw *twiddles, re, im []float64, offset, stride, n, count, lineStride int, inverse bool) {
	if stride != 1 && lineStride != 1 && count > 1 {
		panic("ft: fftLines of lines neither contiguous nor side by side")
	}
	bf := butterflies(n)
	for l := 0; l < count; l++ {
		if k := fc.Room(count-l, int(10*bf)); fc.Reserve(10 * bf * uint64(k)) {
			o := offset + l*lineStride
			bitReverse(re, im, o, stride, n, k, lineStride)
			plainLines(tw, re, im, o, stride, n, k, lineStride, inverse)
			fc.Tally(3*bf*uint64(k), 3*bf*uint64(k), 4*bf*uint64(k), 0)
			if l += k; l == count {
				break
			}
		}
		fft1d(fc, tw, re, im, offset+l*lineStride, stride, n, inverse)
	}
}

// butterflies is the number of butterflies of an FFT of length n: n/2 per
// stage, log2 n stages.  Each is 3 adds, 3 subs and 4 muls.
func butterflies(n int) uint64 { return uint64(n/2) * uint64(bits.TrailingZeros(uint(n))) }

// bitReverse applies an FFT's bit-reversal permutation to count lines, as
// fftLines lays them out (data movement inside the FFT kernel is part of the
// common computation; it has no FP arithmetic).
func bitReverse(re, im []float64, offset, stride, n, count, lineStride int) {
	for i, j := 0, 0; i < n; i++ {
		if i < j {
			a, b := offset+i*stride, offset+j*stride
			for l := 0; l < count; l++ {
				la, lb := a+l*lineStride, b+l*lineStride
				re[la], re[lb] = re[lb], re[la]
				im[la], im[lb] = im[lb], im[la]
			}
		}
		mask := n >> 1
		for j&mask != 0 {
			j &^= mask
			mask >>= 1
		}
		j |= mask
	}
}

// plainLines runs the butterflies of count bit-reversed lines, as fftLines
// lays them out, as plain arithmetic, each element's ops in fft1d's order:
// a contiguous line a stage at a time over slices of it — a stage of
// groups shorter than 16 twiddle by twiddle, so that it does not slice
// four arrays for every few butterflies (measured: < 8, < 16 and < 32 run
// alike, < 4 and every stage slower) — lines side by side a butterfly of
// every line at a time.
func plainLines(tw *twiddles, re, im []float64, offset, stride, n, count, lineStride int, inverse bool) {
	if stride != 1 {
		plainButterflyLines(tw, re, im, offset, stride, n, count, inverse)
		return
	}
	for l := 0; l < count; l++ {
		o := offset + l*lineStride
		lr, li := re[o:o+n], im[o:o+n]
		for stage, half := 0, 1; half < n; stage, half = stage+1, half<<1 {
			twRe := tw.re[stage]
			twIm := tw.im[stage][:len(twRe)]
			if half < 16 { // a twiddle at a time, its butterflies 2*half apart
				for j, wr := range twRe {
					wi := twIm[j]
					if inverse {
						wi = -wi
					}
					for a := j; a < n; a += 2 * half {
						b := a + half
						lr[a], li[a], lr[b], li[b] = butterfly(wr, wi, lr[a], li[a], lr[b], li[b])
					}
				}
				continue
			}
			for start := 0; start < n; start += half << 1 {
				ar, ai := lr[start:start+half], li[start:start+half]
				br, bi := lr[start+half:start+2*half], li[start+half:start+2*half]
				ar, ai, br, bi = ar[:len(twRe)], ai[:len(twRe)], br[:len(twRe)], bi[:len(twRe)]
				for j, wr := range twRe {
					wi := twIm[j]
					if inverse {
						wi = -wi
					}
					ar[j], ai[j], br[j], bi[j] = butterfly(wr, wi, ar[j], ai[j], br[j], bi[j])
				}
			}
		}
	}
}

// plainButterflyLines runs the butterflies of count lines that lie side by
// side (line l starts at offset+l), a butterfly of every line at a time, so
// that the innermost loop walks contiguous memory.
func plainButterflyLines(tw *twiddles, re, im []float64, offset, stride, n, count int, inverse bool) {
	stage := 0
	for half := 1; half < n; half <<= 1 {
		twRe, twIm := tw.re[stage], tw.im[stage]
		for start := 0; start < n; start += half << 1 {
			for j := 0; j < half; j++ {
				wr, wi := twRe[j], twIm[j]
				if inverse {
					wi = -wi
				}
				a := offset + (start+j)*stride
				b := offset + (start+j+half)*stride
				ar, ai := re[a:a+count], im[a:a+count]
				br, bi := re[b:b+count], im[b:b+count]
				ai, br, bi = ai[:len(ar)], br[:len(ar)], bi[:len(ar)]
				for l := range ar {
					ar[l], ai[l], br[l], bi[l] = butterfly(wr, wi, ar[l], ai[l], br[l], bi[l])
				}
			}
		}
		stage++
	}
}

// butterfly is one radix-2 butterfly of a and b under the twiddle w, as
// plain arithmetic in fft1d's order: v = w*b, then a+v and a-v.
func butterfly(wr, wi, ar, ai, br, bi float64) (float64, float64, float64, float64) {
	vr := float64(wr*br) - float64(wi*bi)
	vi := float64(wr*bi) + float64(wi*br)
	return ar + vr, ai + vi, ar - vr, ai - vi
}

// hashInit returns the deterministic initial value pair for global element
// index gidx — identical at every scale (strong scaling: same input).
func hashInit(seed, gidx uint64) (float64, float64) {
	x := seed + gidx*0x9e3779b97f4a7c15
	z := x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	a := float64(z>>11) / (1 << 53)
	z = (z ^ (z >> 29)) * 0xff51afd7ed558ccd
	z ^= z >> 32
	b := float64(z>>11) / (1 << 53)
	return a, b
}

// field is a rank's share of the complex 3-D array in one of two layouts.
type field struct {
	re, im []float64
}

// Run executes the benchmark on this rank.
func (a App) Run(fc *fpe.Ctx, comm *simmpi.Comm, class string) (apps.RankOutput, error) {
	return a.RunSteps(fc, comm, class, nil)
}

// RunSteps is Run in steps: step 0 is the forward 3-D FFT, step t the t-th
// time step.  No step reads the spectrum's predecessors, so the carry is the
// spectrum and the checksums so far.
func (a App) RunSteps(fc *fpe.Ctx, comm *simmpi.Comm, class string, st *apps.Steps) (apps.RankOutput, error) {
	pr, ok := classes[class]
	if !ok {
		return apps.RankOutput{}, &apps.ErrBadProcs{App: "FT", Class: class, Procs: comm.Size(),
			Reason: "unknown class"}
	}
	if err := apps.CheckProcs(a, class, comm.Size()); err != nil {
		return apps.RankOutput{}, err
	}
	p := comm.Size()
	nx, ny, nz := pr.nx, pr.ny, pr.nz
	zlo, zhi := apps.Block1D(nz, p, comm.Rank())
	xlo, xhi := apps.Block1D(nx, p, comm.Rank())
	nzLoc, nxLoc := zhi-zlo, xhi-xlo

	twX, twY, twZ := twiddlesFor(nx), twiddlesFor(ny), twiddlesFor(nz)

	// Spatial layout (z-distributed): idx = (z-zlo)*ny*nx + y*nx + x.
	spatial := field{re: st.Floats(nzLoc * ny * nx), im: st.Floats(nzLoc * ny * nx)}

	serial := p == 1
	spec := spatial // spectral data: in place in a serial run
	var xp exchange // the transposes' staging (parallel runs only)
	if !serial {
		spec = field{re: st.Floats(nxLoc * ny * nz), im: st.Floats(nxLoc * ny * nz)}
		blocks := st.Blocks(2*p, nzLoc*ny*nxLoc*2)
		xp = exchange{send: blocks[:p], recv: blocks[p:]}
	}
	// The evolution factors of the elements this rank owns in its spectral
	// layout start at evoLo: a run of the x-major table in a parallel run.
	evo, evoLo := evolution(pr, serial), xlo*ny*nz
	samples := checkSamples(pr, zlo, zhi)

	n3 := float64(nx) * float64(ny) * float64(nz)
	invN3 := 1 / n3
	work := field{re: st.Floats(len(spec.re)), im: st.Floats(len(spec.im))}
	check := st.Floats(2 * pr.iters)
	var lastSpatial field
	carry := &apps.Carry{Vecs: [][]float64{spec.re, spec.im, check}}
	for t := st.Resume(carry); t <= pr.iters; t++ {
		if t == 0 {
			forward(fc, comm, pr, xp, spatial, spec, zlo, zhi, xlo, xhi)
			st.Mark(1, carry)
			continue
		}
		// ---- time step t ----------------------------------------------------
		// Evolve: work = spec * exp(-4 alpha pi^2 ksq t).
		// Each element is a re and an im mul; a due one splits the window.
		f := evo[t-1][evoLo : evoLo+len(spec.re)]
		for i := 0; i < len(f); i++ {
			if k := fc.Room(len(f)-i, 2); fc.Reserve(2 * uint64(k)) {
				for j := i; j < i+k; j++ {
					work.re[j] = float64(spec.re[j] * f[j])
					work.im[j] = float64(spec.im[j] * f[j])
				}
				fc.Tally(0, 0, 2*uint64(k), 0)
				if i += k; i == len(f) {
					break
				}
			}
			work.re[i] = fc.Mul(spec.re[i], f[i])
			work.im[i] = fc.Mul(spec.im[i], f[i])
		}
		// Inverse 3-D FFT of work back to spatial, z-distributed layout.
		var spat field
		if serial {
			spat = work
			fftLines(fc, twZ, spat.re, spat.im, 0, ny*nx, nz, ny*nx, 1, true)
		} else {
			fftLines(fc, twZ, work.re, work.im, 0, 1, nz, nxLoc*ny, nz, true)
			// The initial field was consumed by the forward transpose; its
			// arrays take each step's spatial result.
			spat = spatial
			transposeXZ(fc, comm, pr, xp, work, spat, zlo, zhi, xlo, xhi)
		}
		for z := 0; z < nzLoc; z++ {
			fftLines(fc, twY, spat.re, spat.im, z*ny*nx, nx, ny, nx, 1, true)
			fftLines(fc, twX, spat.re, spat.im, z*ny*nx, 1, nx, ny, nx, true)
		}
		// Normalize, split the same way.
		for i := 0; i < len(spat.re); i++ {
			if k := fc.Room(len(spat.re)-i, 2); fc.Reserve(2 * uint64(k)) {
				for j := i; j < i+k; j++ {
					spat.re[j] = float64(spat.re[j] * invN3)
					spat.im[j] = float64(spat.im[j] * invN3)
				}
				fc.Tally(0, 0, 2*uint64(k), 0)
				if i += k; i == len(spat.re) {
					break
				}
			}
			spat.re[i] = fc.Mul(spat.re[i], invN3)
			spat.im[i] = fc.Mul(spat.im[i], invN3)
		}
		// Strided checksum (NPB style): sum of checkN scattered elements.
		var csRe, csIm float64
		for _, l := range samples {
			csRe = fc.Add(csRe, spat.re[l])
			csIm = fc.Add(csIm, spat.im[l])
		}
		sum := check[2*t-2 : 2*t]
		sum[0], sum[1] = csRe, csIm
		comm.AllreduceInto(simmpi.OpSum, sum)
		lastSpatial = spat
		st.Mark(t+1, carry)
	}

	state := st.Floats(2 * len(lastSpatial.re))
	copy(state, lastSpatial.re)
	copy(state[len(lastSpatial.re):], lastSpatial.im)
	return apps.RankOutput{State: state, Check: check}, nil
}

// forward fills spatial, in the z-distributed layout, with the initial
// field (only a run that starts at step 0 needs it: a resumed one restores
// the spectrum, and each time step rewrites spatial) and transforms it into
// spec: the x and y direction FFTs are local to that layout; a serial run
// then does the z-direction FFTs strided in place (spec is spatial), a
// parallel one transposes to the x-distributed layout and does them there.
func forward(fc *fpe.Ctx, comm *simmpi.Comm, pr params, xp exchange, spatial, spec field, zlo, zhi, xlo, xhi int) {
	nx, ny, nz := pr.nx, pr.ny, pr.nz
	for z := zlo; z < zhi; z++ {
		for y := 0; y < ny; y++ {
			for x := 0; x < nx; x++ {
				g := uint64((z*ny+y)*nx + x)
				r, i := hashInit(pr.seed, g)
				l := ((z-zlo)*ny+y)*nx + x
				spatial.re[l] = r
				spatial.im[l] = i
			}
		}
	}
	twX, twY, twZ := twiddlesFor(nx), twiddlesFor(ny), twiddlesFor(nz)
	for z := 0; z < zhi-zlo; z++ {
		fftLines(fc, twX, spatial.re, spatial.im, z*ny*nx, 1, nx, ny, nx, false)
		fftLines(fc, twY, spatial.re, spatial.im, z*ny*nx, nx, ny, nx, 1, false)
	}
	if comm.Size() == 1 {
		fftLines(fc, twZ, spec.re, spec.im, 0, ny*nx, nz, ny*nx, 1, false)
		return
	}
	transposeZX(fc, comm, pr, xp, spatial, spec, zlo, zhi, xlo, xhi)
	fftLines(fc, twZ, spec.re, spec.im, 0, 1, nz, (xhi-xlo)*ny, nz, false)
}

// kbar2 returns the squared folded wavenumber for index k of dimension n.
func kbar2(k, n int) float64 {
	if k > n/2 {
		k -= n
	}
	return float64(k * k)
}

// evoKey names one class's evolution factors in one layout.
type evoKey struct {
	seed   uint64
	serial bool
}

// evolutions caches the evolution factors of each class and layout:
// fault-free setup that depends on neither the rank nor the run, so shared
// by every run and read-only (see package apps).  Table t-1 holds time step
// t's exp(-4 alpha pi^2 kbar^2 t) over the whole grid, in the serial run's
// z-major layout or in the x-major layout a parallel rank reads a run of.
var evolutions sync.Map // evoKey -> [][]float64

func evolution(pr params, serial bool) [][]float64 {
	key := evoKey{pr.seed, serial}
	if f, ok := evolutions.Load(key); ok {
		return f.([][]float64)
	}
	nx, ny, nz := pr.nx, pr.ny, pr.nz
	ksq := make([]float64, 0, nx*ny*nz)
	for a := 0; a < nz*ny*nx; a++ {
		if serial { // a = (z*ny+y)*nx+x
			ksq = append(ksq, kbar2(a%nx, nx)+kbar2(a/nx%ny, ny)+kbar2(a/(nx*ny), nz))
		} else { // a = (x*ny+y)*nz+z
			ksq = append(ksq, kbar2(a/(ny*nz), nx)+kbar2(a/nz%ny, ny)+kbar2(a%nz, nz))
		}
	}
	f := make([][]float64, pr.iters)
	for t := range f {
		tf := -4 * pr.alpha * math.Pi * math.Pi * float64(t+1)
		f[t] = make([]float64, len(ksq))
		for i, k := range ksq {
			f[t][i] = math.Exp(tf * k)
		}
	}
	cached, _ := evolutions.LoadOrStore(key, f)
	return cached.([][]float64)
}

// sampleKey names the checksum samples of one class in one z range.
type sampleKey struct {
	seed     uint64
	zlo, zhi int
}

// sampleTables caches checkSamples' answers: fault-free setup, shared by
// every run and read-only like evolutions.
var sampleTables sync.Map // sampleKey -> []int

// checkSamples returns where the checksum's samples j = 1..checkN, at (j
// mod nx, 3j mod ny, 5j mod nz), lie in a rank's spatial layout, in j
// order, keeping those in its z range [zlo, zhi).
func checkSamples(pr params, zlo, zhi int) []int {
	key := sampleKey{pr.seed, zlo, zhi}
	if s, ok := sampleTables.Load(key); ok {
		return s.([]int)
	}
	var s []int
	for j := 1; j <= pr.checkN; j++ {
		if z := (5 * j) % pr.nz; z >= zlo && z < zhi {
			s = append(s, ((z-zlo)*pr.ny+(3*j)%pr.ny)*pr.nx+j%pr.nx)
		}
	}
	cached, _ := sampleTables.LoadOrStore(key, s)
	return cached.([]int)
}

// stage moves every float of the blocks through the instrumented transpose
// datapath, block by block, in the region name: at the instruction level
// each is a load/store whose operand a fault can strike, so resmod models
// it as an injectable identity add in the Unique region.  The pack stages
// what it packed into the send blocks, the unpack what it received before
// scattering it.  Where no injection is due the adds run plain — v + 0,
// not a copy: it turns -0 into +0 — in one window.
func stage(fc *fpe.Ctx, name string, blocks [][]float64) {
	end := fc.Begin(name, fpe.Unique)
	n := uint64(len(blocks) * len(blocks[0]))
	if fc.Reserve(n) {
		for _, b := range blocks {
			for i := range b {
				b[i] += 0
			}
		}
		fc.Tally(n, 0, 0, 0)
	} else {
		for _, b := range blocks {
			for i := range b {
				b[i] = fc.Add(b[i], 0)
			}
		}
	}
	end()
}

// exchange is the staging of a run's alltoall transposes, drawn once from
// the rank's working set: send[r] is the block packed for rank r, recv[r]
// the block received from it.
type exchange struct {
	send, recv [][]float64
}

// transposeZX redistributes in, in the z-distributed spatial layout
// ((z,y,x), x contiguous), to out in the x-distributed layout ((x,y,z), z
// contiguous).  Pack and unpack are parallel-unique computation.
func transposeZX(fc *fpe.Ctx, comm *simmpi.Comm, pr params, xp exchange, in, out field, zlo, zhi, xlo, xhi int) {
	p := comm.Size()
	nx, ny, nz := pr.nx, pr.ny, pr.nz
	nzLoc := zhi - zlo
	nxLoc := xhi - xlo
	nxb := nx / p

	for d := 0; d < p; d++ {
		buf := xp.send[d]
		k := 0
		for z := 0; z < nzLoc; z++ {
			for y := 0; y < ny; y++ {
				base := (z*ny + y) * nx
				for x := d * nxb; x < (d+1)*nxb; x++ {
					buf[k], buf[k+1] = in.re[base+x], in.im[base+x]
					k += 2
				}
			}
		}
	}
	stage(fc, "transpose-pack", xp.send)

	comm.AlltoallInto(xp.recv, xp.send)

	stage(fc, "transpose-unpack", xp.recv)
	nzb := nz / p
	for s := 0; s < p; s++ {
		buf := xp.recv[s]
		k := 0
		for z := s * nzb; z < (s+1)*nzb; z++ {
			for y := 0; y < ny; y++ {
				for x := 0; x < nxLoc; x++ {
					l := (x*ny+y)*nz + z
					out.re[l], out.im[l] = buf[k], buf[k+1]
					k += 2
				}
			}
		}
	}
}

// transposeXZ is the inverse redistribution: x-distributed back to
// z-distributed.
func transposeXZ(fc *fpe.Ctx, comm *simmpi.Comm, pr params, xp exchange, in, out field, zlo, zhi, xlo, xhi int) {
	p := comm.Size()
	nx, ny, nz := pr.nx, pr.ny, pr.nz
	nzLoc := zhi - zlo
	nxLoc := xhi - xlo
	nzb := nz / p

	for d := 0; d < p; d++ {
		buf := xp.send[d]
		k := 0
		for z := d * nzb; z < (d+1)*nzb; z++ {
			for y := 0; y < ny; y++ {
				for x := 0; x < nxLoc; x++ {
					l := (x*ny+y)*nz + z
					buf[k], buf[k+1] = in.re[l], in.im[l]
					k += 2
				}
			}
		}
	}
	stage(fc, "transpose-pack", xp.send)

	comm.AlltoallInto(xp.recv, xp.send)

	stage(fc, "transpose-unpack", xp.recv)
	nxb := nx / p
	for s := 0; s < p; s++ {
		buf := xp.recv[s]
		k := 0
		for z := 0; z < nzLoc; z++ {
			for y := 0; y < ny; y++ {
				base := (z*ny + y) * nx
				for x := s * nxb; x < (s+1)*nxb; x++ {
					out.re[base+x], out.im[base+x] = buf[k], buf[k+1]
					k += 2
				}
			}
		}
	}
}

// Verify implements the NPB FT checker: every per-iteration checksum
// component must match the fault-free value within the verification
// tolerance.
func (App) Verify(golden, check []float64) bool {
	return apps.VerifyRel(golden, check, 1e-10)
}
