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
// offset, offset+stride, ... of (re, im).  inverse selects the conjugate
// transform (without the 1/n scaling, applied separately).
// All butterfly arithmetic is counted; where no injection is due it runs
// plain, in one fpe window.
func fft1d(fc *fpe.Ctx, tw *twiddles, re, im []float64, offset, stride, n int, inverse bool) {
	// Bit-reversal permutation (data movement inside the FFT kernel is part
	// of the common computation; it has no FP arithmetic).
	for i, j := 0, 0; i < n; i++ {
		if i < j {
			a, b := offset+i*stride, offset+j*stride
			re[a], re[b] = re[b], re[a]
			im[a], im[b] = im[b], im[a]
		}
		mask := n >> 1
		for j&mask != 0 {
			j &^= mask
			mask >>= 1
		}
		j |= mask
	}
	// n/2 butterflies per stage, log2 n stages; each is 3 adds, 3 subs and
	// 4 muls.
	if bf := uint64(n/2) * uint64(bits.TrailingZeros(uint(n))); fc.Reserve(10 * bf) {
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
					vr := float64(wr*re[b]) - float64(wi*im[b])
					vi := float64(wr*im[b]) + float64(wi*re[b])
					re[b] = re[a] - vr
					im[b] = im[a] - vi
					re[a] += vr
					im[a] += vi
				}
			}
			stage++
		}
		fc.Tally(3*bf, 3*bf, 4*bf, 0)
		return
	}
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
		stage++
	}
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
	spatial := field{re: make([]float64, nzLoc*ny*nx), im: make([]float64, nzLoc*ny*nx)}
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

	serial := p == 1
	spec := spatial // spectral data: in place in a serial run
	var xp exchange // the transposes' staging (parallel runs only)
	if !serial {
		spec = field{re: make([]float64, nxLoc*ny*nz), im: make([]float64, nxLoc*ny*nz)}
		xp = newExchange(p, nzLoc*ny*nxLoc*2)
	}

	// Evolution exponents: kbar^2 summed over the three dimensions,
	// for the elements this rank owns in its spectral layout.
	ksq := make([]float64, len(spec.re))
	if serial {
		for z := 0; z < nz; z++ {
			for y := 0; y < ny; y++ {
				for x := 0; x < nx; x++ {
					ksq[(z*ny+y)*nx+x] = kbar2(x, nx) + kbar2(y, ny) + kbar2(z, nz)
				}
			}
		}
	} else {
		for x := xlo; x < xhi; x++ {
			for y := 0; y < ny; y++ {
				for z := 0; z < nz; z++ {
					ksq[((x-xlo)*ny+y)*nz+z] = kbar2(x, nx) + kbar2(y, ny) + kbar2(z, nz)
				}
			}
		}
	}

	n3 := float64(nx) * float64(ny) * float64(nz)
	invN3 := 1 / n3
	work := field{re: make([]float64, len(spec.re)), im: make([]float64, len(spec.im))}
	check := make([]float64, 2*pr.iters)
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
		tf := -4 * pr.alpha * math.Pi * math.Pi * float64(t)
		if n := uint64(len(spec.re)); fc.Reserve(2 * n) {
			for i := range spec.re {
				f := math.Exp(float64(tf * ksq[i]))
				work.re[i] = float64(spec.re[i] * f)
				work.im[i] = float64(spec.im[i] * f)
			}
			fc.Tally(0, 0, 2*n, 0)
		} else {
			for i := range spec.re {
				f := math.Exp(tf * ksq[i])
				work.re[i] = fc.Mul(spec.re[i], f)
				work.im[i] = fc.Mul(spec.im[i], f)
			}
		}
		// Inverse 3-D FFT of work back to spatial, z-distributed layout.
		var spat field
		if serial {
			spat = work
			for y := 0; y < ny; y++ {
				for x := 0; x < nx; x++ {
					fft1d(fc, twZ, spat.re, spat.im, y*nx+x, ny*nx, nz, true)
				}
			}
		} else {
			for x := 0; x < nxLoc; x++ {
				for y := 0; y < ny; y++ {
					fft1d(fc, twZ, work.re, work.im, (x*ny+y)*nz, 1, nz, true)
				}
			}
			// The initial field was consumed by the forward transpose; its
			// arrays take each step's spatial result.
			spat = spatial
			transposeXZ(fc, comm, pr, xp, work, spat, zlo, zhi, xlo, xhi)
		}
		for z := 0; z < nzLoc; z++ {
			for x := 0; x < nx; x++ {
				fft1d(fc, twY, spat.re, spat.im, z*ny*nx+x, nx, ny, true)
			}
			for y := 0; y < ny; y++ {
				fft1d(fc, twX, spat.re, spat.im, (z*ny+y)*nx, 1, nx, true)
			}
		}
		// Normalize.
		if n := uint64(len(spat.re)); fc.Reserve(2 * n) {
			for i := range spat.re {
				spat.re[i] = float64(spat.re[i] * invN3)
				spat.im[i] = float64(spat.im[i] * invN3)
			}
			fc.Tally(0, 0, 2*n, 0)
		} else {
			for i := range spat.re {
				spat.re[i] = fc.Mul(spat.re[i], invN3)
				spat.im[i] = fc.Mul(spat.im[i], invN3)
			}
		}
		// Strided checksum (NPB style): sum of checkN scattered elements.
		var csRe, csIm float64
		for j := 1; j <= pr.checkN; j++ {
			x := j % nx
			y := (3 * j) % ny
			z := (5 * j) % nz
			if z < zlo || z >= zhi {
				continue
			}
			l := ((z-zlo)*ny+y)*nx + x
			csRe = fc.Add(csRe, spat.re[l])
			csIm = fc.Add(csIm, spat.im[l])
		}
		sum := check[2*t-2 : 2*t]
		sum[0], sum[1] = csRe, csIm
		comm.AllreduceInto(simmpi.OpSum, sum)
		lastSpatial = spat
		st.Mark(t+1, carry)
	}

	state := make([]float64, 0, 2*len(lastSpatial.re))
	state = append(state, lastSpatial.re...)
	state = append(state, lastSpatial.im...)
	return apps.RankOutput{State: state, Check: check}, nil
}

// forward transforms spatial, in the z-distributed layout, into spec: the x
// and y direction FFTs are local to that layout; a serial run then does the
// z-direction FFTs strided in place (spec is spatial), a parallel one
// transposes to the x-distributed layout and does them there.
func forward(fc *fpe.Ctx, comm *simmpi.Comm, pr params, xp exchange, spatial, spec field, zlo, zhi, xlo, xhi int) {
	nx, ny, nz := pr.nx, pr.ny, pr.nz
	twX, twY, twZ := twiddlesFor(nx), twiddlesFor(ny), twiddlesFor(nz)
	for z := 0; z < zhi-zlo; z++ {
		for y := 0; y < ny; y++ {
			fft1d(fc, twX, spatial.re, spatial.im, (z*ny+y)*nx, 1, nx, false)
		}
		for x := 0; x < nx; x++ {
			fft1d(fc, twY, spatial.re, spatial.im, z*ny*nx+x, nx, ny, false)
		}
	}
	if comm.Size() == 1 {
		for y := 0; y < ny; y++ {
			for x := 0; x < nx; x++ {
				fft1d(fc, twZ, spec.re, spec.im, y*nx+x, ny*nx, nz, false)
			}
		}
		return
	}
	transposeZX(fc, comm, pr, xp, spatial, spec, zlo, zhi, xlo, xhi)
	for x := 0; x < xhi-xlo; x++ {
		for y := 0; y < ny; y++ {
			fft1d(fc, twZ, spec.re, spec.im, (x*ny+y)*nz, 1, nz, false)
		}
	}
}

// kbar2 returns the squared folded wavenumber for index k of dimension n.
func kbar2(k, n int) float64 {
	if k > n/2 {
		k -= n
	}
	return float64(k * k)
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

// exchange is the staging of a run's alltoall transposes, made once: send[r]
// is the block packed for rank r, recv[r] the block received from it.
type exchange struct {
	send, recv [][]float64
}

// newExchange returns the staging for p ranks and blocks of n floats, all
// carved from one array.
func newExchange(p, n int) exchange {
	flat := make([]float64, 2*p*n)
	xp := exchange{send: make([][]float64, p), recv: make([][]float64, p)}
	for r := 0; r < p; r++ {
		xp.send[r] = flat[r*n : (r+1)*n]
		xp.recv[r] = flat[(p+r)*n : (p+r+1)*n]
	}
	return xp
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
