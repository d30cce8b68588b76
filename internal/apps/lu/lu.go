// Package lu implements the NPB LU benchmark in resmod's reduced form: a
// symmetric successive over-relaxation (SSOR) solver applied to a strictly
// diagonally dominant, non-symmetric 7-point convection–diffusion operator
// on a 3-D box with homogeneous Dirichlet boundaries (NAS Parallel
// Benchmarks 3.3, application LU, scalar analog of its five-variable
// system).
//
// Parallel decomposition: planes are block-distributed along z.  The
// forward (lower-triangular) substitution sweeps ascending z and the
// backward (upper-triangular) sweep descending z, so each rank must wait
// for its neighbour's boundary plane before sweeping — the classic NPB LU
// software pipeline (wavefront).  An injected error therefore propagates
// downstream rank-by-rank within a sweep and back upstream in the next —
// the gradual propagation pattern that distinguishes LU from CG/FT in the
// paper's characterization.
//
// LU has no parallel-unique computation (paper Table 1): boundary planes
// are sent directly from the working arrays.
package lu

import (
	"math"
	"sync"

	"resmod/internal/apps"
	"resmod/internal/fpe"
	"resmod/internal/simmpi"
)

// params describes one problem class.
type params struct {
	nx, ny, nz int
	niter      int
	omega      float64 // relaxation factor
	diag       float64 // operator diagonal (> 6 for strict dominance)
	delta      float64 // convective asymmetry of the off-diagonals
}

var classes = map[string]params{
	// The paper runs LU with NPB class W; this is its laptop-scale analog.
	"W": {nx: 12, ny: 12, nz: 64, niter: 6, omega: 1.0, diag: 9.0, delta: 0.2},
	// A larger class with a longer pipeline, for scaling studies.
	"A": {nx: 16, ny: 16, nz: 128, niter: 6, omega: 1.0, diag: 9.0, delta: 0.2},
}

// App is the LU benchmark.
type App struct{}

func init() { apps.Register(App{}) }

// Name returns "LU".
func (App) Name() string { return "LU" }

// Classes returns the supported problem classes.
func (App) Classes() []string { return []string{"W", "A"} }

// DefaultClass returns "W".
func (App) DefaultClass() string { return "W" }

// MaxProcs returns the largest supported rank count (one plane per rank).
func (App) MaxProcs(class string) int {
	p, ok := classes[class]
	if !ok {
		return 0
	}
	return p.nz
}

// coeffs are the seven stencil coefficients of the operator.
type coeffs struct {
	d                      float64 // diagonal
	aW, aE, aS, aN, aB, aT float64 // west/east (x), south/north (y), bottom/top (z)
}

func makeCoeffs(pr params) coeffs {
	return coeffs{
		d:  pr.diag,
		aW: -(1 + pr.delta), aE: -(1 - pr.delta),
		aS: -(1 + pr.delta), aN: -(1 - pr.delta),
		aB: -(1 + pr.delta), aT: -(1 - pr.delta),
	}
}

// slab is a rank's block of planes with Dirichlet-zero virtual boundaries.
type slab struct {
	nx, ny, nzLoc int
}

// plane is the number of grid points in one plane.
func (s *slab) plane() int { return s.nx * s.ny }

// applyA computes w = A u over the slab (ghosts supply z neighbours), a
// window per plane.
func applyA(fc *fpe.Ctx, s *slab, cf coeffs, u, ghLo, ghHi, w []float64) {
	nx, sz := s.nx, s.plane()
	n := uint64(sz)
	for zl := 0; zl < s.nzLoc; zl++ {
		up, wp := apps.Layer(u, sz, zl, nil, nil), apps.Layer(w, sz, zl, nil, nil)
		bp, tp := apps.Layer(u, sz, zl-1, ghLo, ghHi), apps.Layer(u, sz, zl+1, ghLo, ghHi)
		if fc.Reserve(13 * n) {
			for y := 0; y < s.ny; y++ {
				c, so, no := apps.Row(up, nx, y), apps.Row(up, nx, y-1), apps.Row(up, nx, y+1)
				bo, to, out := apps.Row(bp, nx, y), apps.Row(tp, nx, y), apps.Row(wp, nx, y)
				for x, ux := range c {
					uw, ue := apps.Beside(c, x)
					acc := float64(cf.d * ux)
					acc += float64(cf.aW * uw)
					acc += float64(cf.aE * ue)
					acc += float64(cf.aS * so[x])
					acc += float64(cf.aN * no[x])
					acc += float64(cf.aB * bo[x])
					acc += float64(cf.aT * to[x])
					out[x] = acc
				}
			}
			fc.Tally(6*n, 0, 7*n, 0)
			continue
		}
		for y := 0; y < s.ny; y++ {
			c, so, no := apps.Row(up, nx, y), apps.Row(up, nx, y-1), apps.Row(up, nx, y+1)
			bo, to, out := apps.Row(bp, nx, y), apps.Row(tp, nx, y), apps.Row(wp, nx, y)
			for x, ux := range c {
				uw, ue := apps.Beside(c, x)
				acc := fc.Mul(cf.d, ux)
				acc = fc.Add(acc, fc.Mul(cf.aW, uw))
				acc = fc.Add(acc, fc.Mul(cf.aE, ue))
				acc = fc.Add(acc, fc.Mul(cf.aS, so[x]))
				acc = fc.Add(acc, fc.Mul(cf.aN, no[x]))
				acc = fc.Add(acc, fc.Mul(cf.aB, bo[x]))
				acc = fc.Add(acc, fc.Mul(cf.aT, to[x]))
				out[x] = acc
			}
		}
	}
}

// Tags; LU reuses them freely thanks to per-source FIFO matching.
const (
	tagHalo = 100 // halo planes: tagHalo downward (to rank-1), tagHalo+1 upward
	tagFwd  = 102 // forward-sweep pipeline plane
	tagBwd  = 103 // backward-sweep pipeline plane
)

// forwardSweep solves (D + omega*L) v = r by substitution ascending x, y, z.
// The z dependency pipelines across ranks: wait for the rank below (its top
// plane lands in ghost), then send the top plane to the rank above.
func forwardSweep(fc *fpe.Ctx, comm *simmpi.Comm, s *slab, cf coeffs, omega float64, r, ghost, v []float64) {
	rank, p := comm.Rank(), comm.Size()
	var ghLo []float64
	if rank > 0 {
		comm.RecvInto(rank-1, tagFwd, ghost)
		ghLo = ghost
	}
	nx, sz := s.nx, s.plane()
	n := uint64(sz)
	for zl := 0; zl < s.nzLoc; zl++ {
		vp, rp, bp := apps.Layer(v, sz, zl, nil, nil), apps.Layer(r, sz, zl, nil, nil), apps.Layer(v, sz, zl-1, ghLo, nil)
		if fc.Reserve(7 * n) {
			for y := 0; y < s.ny; y++ {
				c, so, bo, rr := apps.Row(vp, nx, y), apps.Row(vp, nx, y-1), apps.Row(bp, nx, y), apps.Row(rp, nx, y)
				for x := range c {
					vw, _ := apps.Beside(c, x)
					lsum := float64(cf.aW * vw)
					lsum += float64(cf.aS * so[x])
					lsum += float64(cf.aB * bo[x])
					num := rr[x] - float64(omega*lsum)
					c[x] = num / cf.d
				}
			}
			fc.Tally(2*n, n, 4*n, n)
			continue
		}
		for y := 0; y < s.ny; y++ {
			c, so, bo, rr := apps.Row(vp, nx, y), apps.Row(vp, nx, y-1), apps.Row(bp, nx, y), apps.Row(rp, nx, y)
			for x := range c {
				vw, _ := apps.Beside(c, x)
				lsum := fc.Mul(cf.aW, vw)
				lsum = fc.Add(lsum, fc.Mul(cf.aS, so[x]))
				lsum = fc.Add(lsum, fc.Mul(cf.aB, bo[x]))
				num := fc.Sub(rr[x], fc.Mul(omega, lsum))
				c[x] = fc.Div(num, cf.d)
			}
		}
	}
	if rank < p-1 {
		comm.Send(rank+1, tagFwd, v[(s.nzLoc-1)*sz:])
	}
}

// backwardSweep solves (D + omega*U) w = D v by substitution descending
// x, y, z, pipelining downward across ranks.
func backwardSweep(fc *fpe.Ctx, comm *simmpi.Comm, s *slab, cf coeffs, omega float64, v, ghost, w []float64) {
	rank, p := comm.Rank(), comm.Size()
	var ghHi []float64
	if rank < p-1 {
		comm.RecvInto(rank+1, tagBwd, ghost)
		ghHi = ghost
	}
	nx, sz := s.nx, s.plane()
	n := uint64(sz)
	for zl := s.nzLoc - 1; zl >= 0; zl-- {
		wp, vp, tp := apps.Layer(w, sz, zl, nil, nil), apps.Layer(v, sz, zl, nil, nil), apps.Layer(w, sz, zl+1, nil, ghHi)
		if fc.Reserve(8 * n) {
			for y := s.ny - 1; y >= 0; y-- {
				c, no, to, vr := apps.Row(wp, nx, y), apps.Row(wp, nx, y+1), apps.Row(tp, nx, y), apps.Row(vp, nx, y)
				for x := len(c) - 1; x >= 0; x-- {
					_, we := apps.Beside(c, x)
					usum := float64(cf.aE * we)
					usum += float64(cf.aN * no[x])
					usum += float64(cf.aT * to[x])
					num := float64(cf.d*vr[x]) - float64(omega*usum)
					c[x] = num / cf.d
				}
			}
			fc.Tally(2*n, n, 5*n, n)
			continue
		}
		for y := s.ny - 1; y >= 0; y-- {
			c, no, to, vr := apps.Row(wp, nx, y), apps.Row(wp, nx, y+1), apps.Row(tp, nx, y), apps.Row(vp, nx, y)
			for x := len(c) - 1; x >= 0; x-- {
				_, we := apps.Beside(c, x)
				usum := fc.Mul(cf.aE, we)
				usum = fc.Add(usum, fc.Mul(cf.aN, no[x]))
				usum = fc.Add(usum, fc.Mul(cf.aT, to[x]))
				num := fc.Sub(fc.Mul(cf.d, vr[x]), fc.Mul(omega, usum))
				c[x] = fc.Div(num, cf.d)
			}
		}
	}
	if rank > 0 {
		comm.Send(rank-1, tagBwd, w[:sz])
	}
}

// rhsFields caches each class's manufactured right-hand side over the
// whole grid — a smooth separable field, identical at every scale (setup,
// uninstrumented).  Every rank of every run reads its slab of the one
// copy, so it is read-only (see package apps).
var rhsFields sync.Map // class name -> []float64, indexed (z*ny+y)*nx+x

func rhsField(class string, pr params) []float64 {
	if f, ok := rhsFields.Load(class); ok {
		return f.([]float64)
	}
	f := make([]float64, pr.nx*pr.ny*pr.nz)
	for z := 0; z < pr.nz; z++ {
		fz := math.Cos(math.Pi * float64(z+1) / float64(pr.nz+1))
		for y := 0; y < pr.ny; y++ {
			fy := math.Sin(2 * math.Pi * float64(y+1) / float64(pr.ny+1))
			for x := 0; x < pr.nx; x++ {
				fx := math.Sin(math.Pi * float64(x+1) / float64(pr.nx+1))
				f[(z*pr.ny+y)*pr.nx+x] = fx*fy + fz*0.5
			}
		}
	}
	cached, _ := rhsFields.LoadOrStore(class, f)
	return cached.([]float64)
}

// Run executes the benchmark on this rank.
func (a App) Run(fc *fpe.Ctx, comm *simmpi.Comm, class string) (apps.RankOutput, error) {
	return a.RunSteps(fc, comm, class, nil)
}

// RunSteps is Run with a step boundary after every SSOR iteration.
func (a App) RunSteps(fc *fpe.Ctx, comm *simmpi.Comm, class string, st *apps.Steps) (apps.RankOutput, error) {
	pr, ok := classes[class]
	if !ok {
		return apps.RankOutput{}, &apps.ErrBadProcs{App: "LU", Class: class, Procs: comm.Size(),
			Reason: "unknown class"}
	}
	if err := apps.CheckProcs(a, class, comm.Size()); err != nil {
		return apps.RankOutput{}, err
	}
	zlo, zhi := apps.Block1D(pr.nz, comm.Size(), comm.Rank())
	s := &slab{nx: pr.nx, ny: pr.ny, nzLoc: zhi - zlo}
	cf := makeCoeffs(pr)

	plane := s.plane()
	n := plane * s.nzLoc
	rhs := rhsField(class, pr)[zlo*plane : zhi*plane]
	u := st.Floats(n)
	// Per-iteration temporaries: A u, the residual, the two sweeps'
	// solutions, and the neighbours' planes.
	au, r, v, w := st.Floats(n), st.Floats(n), st.Floats(n), st.Floats(n)
	below, above := st.Floats(plane), st.Floats(plane)

	n3 := float64(pr.nx) * float64(pr.ny) * float64(pr.nz)
	var rnorm float64
	carry := &apps.Carry{Vecs: [][]float64{u}}
	for it := st.Resume(carry); it < pr.niter; it++ {
		ghLo, ghHi := apps.HaloExchange1D(comm, tagHalo, u[:plane], u[n-plane:], below, above)
		applyA(fc, s, cf, u, ghLo, ghHi, au)
		fc.SubVec(r, rhs, au)
		forwardSweep(fc, comm, s, cf, pr.omega, r, below, v)
		backwardSweep(fc, comm, s, cf, pr.omega, v, above, w)
		fc.AddVec(u, u, w)
		rnorm = math.Sqrt(comm.AllreduceValue(simmpi.OpSum, fc.Dot(r, r)) / n3)
		st.Mark(it+1, carry)
	}
	// Solution RMS norm, the second verification value.
	unorm := math.Sqrt(comm.AllreduceValue(simmpi.OpSum, fc.Dot(u, u)) / n3)

	return apps.RankOutput{State: u, Check: []float64{rnorm, unorm}}, nil
}

// Verify implements the LU checker: the residual and solution norms must
// match the fault-free values within tolerance.
func (App) Verify(golden, check []float64) bool {
	return apps.VerifyRel(golden, check, 1e-8)
}
