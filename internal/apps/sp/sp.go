// Package sp implements resmod's analog of the NPB SP benchmark: an
// alternating-direction-implicit (ADI) time stepper that each cycle solves
// tridiagonal systems along x, y and z with the Thomas algorithm (NAS
// Parallel Benchmarks 3.3, application SP, reduced from its five-variable
// pentadiagonal system to scalar diffusion).
//
// Parallel decomposition: 1-D slabs along z.  The x and y line solves are
// local; the z line solves become local after a global transpose
// (alltoall), and the array is transposed back afterwards — the same data
// redistribution family as FT but wrapped around *implicit* solves, whose
// forward/backward substitution smears an injected error along entire
// lines.  SP is an extension benchmark beyond the paper's six
// applications.
//
// The transpose pack/unpack stages are parallel-unique computation, as in
// FT.
package sp

import (
	"math"

	"resmod/internal/apps"
	"resmod/internal/fpe"
	"resmod/internal/simmpi"
)

// params describes one problem class.
type params struct {
	nx, ny, nz int
	steps      int
	lambda     float64 // implicit diffusion number per direction
}

var classes = map[string]params{
	"S": {nx: 64, ny: 4, nz: 64, steps: 3, lambda: 0.4},
}

// App is the SP benchmark.
type App struct{}

func init() { apps.Register(App{}) }

// Name returns "SP".
func (App) Name() string { return "SP" }

// Classes returns the supported problem classes.
func (App) Classes() []string { return []string{"S"} }

// DefaultClass returns "S".
func (App) DefaultClass() string { return "S" }

// MaxProcs returns the largest supported rank count (both x and z must
// divide among the ranks for the transpose).
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

// thomas solves the constant-coefficient tridiagonal system
// (-lambda, 1+2*lambda, -lambda) x = d in place over the n elements at
// offset, offset+stride, ... of d, with Dirichlet-zero boundaries.
// All arithmetic is instrumented.
func thomas(fc *fpe.Ctx, d []float64, offset, stride, n int, lambda float64, cp []float64) {
	b := 1 + 2*lambda
	a := -lambda
	// Forward elimination.
	cp[0] = fc.Div(a, b)
	d[offset] = fc.Div(d[offset], b)
	for i := 1; i < n; i++ {
		m := fc.Sub(b, fc.Mul(a, cp[i-1]))
		cp[i] = fc.Div(a, m)
		di := offset + i*stride
		d[di] = fc.Div(fc.Sub(d[di], fc.Mul(a, d[di-stride])), m)
	}
	// Back substitution.
	for i := n - 2; i >= 0; i-- {
		di := offset + i*stride
		d[di] = fc.Sub(d[di], fc.Mul(cp[i], d[di+stride]))
	}
}

// stage moves one float through the instrumented transpose datapath (see
// package ft for the rationale).
func stage(fc *fpe.Ctx, v float64) float64 { return fc.Add(v, 0) }

// Run executes the benchmark on this rank.
func (a App) Run(fc *fpe.Ctx, comm *simmpi.Comm, class string) (apps.RankOutput, error) {
	pr, ok := classes[class]
	if !ok {
		return apps.RankOutput{}, &apps.ErrBadProcs{App: "SP", Class: class,
			Procs: comm.Size(), Reason: "unknown class"}
	}
	if err := apps.CheckProcs(a, class, comm.Size()); err != nil {
		return apps.RankOutput{}, err
	}
	p := comm.Size()
	nx, ny, nz := pr.nx, pr.ny, pr.nz
	zlo, zhi := apps.Block1D(nz, p, comm.Rank())
	xlo, xhi := apps.Block1D(nx, p, comm.Rank())
	nzLoc, nxLoc := zhi-zlo, xhi-xlo

	// Initial condition: a smooth multi-bump field (setup, uninstrumented,
	// identical at every scale).
	u := make([]float64, nzLoc*ny*nx)
	for z := zlo; z < zhi; z++ {
		for y := 0; y < ny; y++ {
			for x := 0; x < nx; x++ {
				v := math.Sin(math.Pi*float64(x+1)/float64(nx+1)) *
					math.Cos(2*math.Pi*float64(y)/float64(ny)) *
					math.Sin(math.Pi*float64(z+1)/float64(nz+1))
				u[((z-zlo)*ny+y)*nx+x] = v + 0.25
			}
		}
	}

	cp := make([]float64, max(nx, max(ny, nz))) // Thomas scratch
	// The x-distributed copy and the transposes' staging blocks (see
	// package ft), made once for a parallel run.
	var xd []float64
	var xp apps.Exchange
	if p > 1 {
		xd = make([]float64, nxLoc*ny*nz)
		xp = apps.NewExchange(p, nzLoc*ny*nxLoc)
	}
	for step := 0; step < pr.steps; step++ {
		// x-direction implicit solve: lines are contiguous.
		for z := 0; z < nzLoc; z++ {
			for y := 0; y < ny; y++ {
				thomas(fc, u, (z*ny+y)*nx, 1, nx, pr.lambda, cp)
			}
		}
		// y-direction: stride nx.
		for z := 0; z < nzLoc; z++ {
			for x := 0; x < nx; x++ {
				thomas(fc, u, z*ny*nx+x, nx, ny, pr.lambda, cp)
			}
		}
		// z-direction: strided in serial, transposed in parallel.
		if p == 1 {
			for y := 0; y < ny; y++ {
				for x := 0; x < nx; x++ {
					thomas(fc, u, y*nx+x, ny*nx, nz, pr.lambda, cp)
				}
			}
		} else {
			transposeZX(fc, comm, pr, xp, u, xd, zlo, zhi, xlo, xhi)
			for x := 0; x < nxLoc; x++ {
				for y := 0; y < ny; y++ {
					thomas(fc, xd, (x*ny+y)*nz, 1, nz, pr.lambda, cp)
				}
			}
			transposeXZ(fc, comm, pr, xp, xd, u, zlo, zhi, xlo, xhi)
		}
	}

	// Verification: global RMS and the field value nearest the domain
	// centre.
	rms := comm.AllreduceValue(simmpi.OpSum, fc.Dot(u, u))
	rms = math.Sqrt(rms / (float64(nx) * float64(ny) * float64(nz)))
	var center float64
	cz := nz / 2
	if cz >= zlo && cz < zhi {
		center = u[((cz-zlo)*ny+ny/2)*nx+nx/2]
	}
	center = comm.AllreduceValue(simmpi.OpSum, center)

	state := make([]float64, len(u))
	copy(state, u)
	return apps.RankOutput{State: state, Check: []float64{rms, center}}, nil
}

// transposeZX redistributes in, in z-slabs ((z,y,x), x contiguous), to out
// in x-slabs ((x,y,z), z contiguous).  Pack/unpack are parallel-unique.
func transposeZX(fc *fpe.Ctx, comm *simmpi.Comm, pr params, xp apps.Exchange, in, out []float64, zlo, zhi, xlo, xhi int) {
	p := comm.Size()
	nx, ny, nz := pr.nx, pr.ny, pr.nz
	nzLoc, nxLoc := zhi-zlo, xhi-xlo
	nxb := nx / p
	end := fc.Begin("transpose-pack", fpe.Unique)
	for d := 0; d < p; d++ {
		buf := xp.Send[d]
		k := 0
		for z := 0; z < nzLoc; z++ {
			for y := 0; y < ny; y++ {
				base := (z*ny + y) * nx
				for x := d * nxb; x < (d+1)*nxb; x++ {
					buf[k] = stage(fc, in[base+x])
					k++
				}
			}
		}
	}
	end()
	comm.AlltoallInto(xp.Recv, xp.Send)
	end = fc.Begin("transpose-unpack", fpe.Unique)
	nzb := nz / p
	for s := 0; s < p; s++ {
		buf := xp.Recv[s]
		k := 0
		for z := s * nzb; z < (s+1)*nzb; z++ {
			for y := 0; y < ny; y++ {
				for x := 0; x < nxLoc; x++ {
					out[(x*ny+y)*nz+z] = stage(fc, buf[k])
					k++
				}
			}
		}
	}
	end()
}

// transposeXZ is the inverse redistribution.
func transposeXZ(fc *fpe.Ctx, comm *simmpi.Comm, pr params, xp apps.Exchange, in, out []float64, zlo, zhi, xlo, xhi int) {
	p := comm.Size()
	nx, ny, nz := pr.nx, pr.ny, pr.nz
	nzLoc, nxLoc := zhi-zlo, xhi-xlo
	nzb := nz / p
	end := fc.Begin("transpose-pack", fpe.Unique)
	for d := 0; d < p; d++ {
		buf := xp.Send[d]
		k := 0
		for z := d * nzb; z < (d+1)*nzb; z++ {
			for y := 0; y < ny; y++ {
				for x := 0; x < nxLoc; x++ {
					buf[k] = stage(fc, in[(x*ny+y)*nz+z])
					k++
				}
			}
		}
	}
	end()
	comm.AlltoallInto(xp.Recv, xp.Send)
	end = fc.Begin("transpose-unpack", fpe.Unique)
	nxb := nx / p
	for s := 0; s < p; s++ {
		buf := xp.Recv[s]
		k := 0
		for z := 0; z < nzLoc; z++ {
			for y := 0; y < ny; y++ {
				base := (z*ny + y) * nx
				for x := s * nxb; x < (s+1)*nxb; x++ {
					out[base+x] = stage(fc, buf[k])
					k++
				}
			}
		}
	}
	end()
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Verify implements the SP checker: RMS and centre value within tolerance.
func (App) Verify(golden, check []float64) bool {
	return apps.VerifyRel(golden, check, 1e-8)
}
