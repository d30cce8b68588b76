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
	zlo, nz       int // global plane offset and global extent
}

func (s *slab) idx(x, y, zl int) int { return (zl*s.ny+y)*s.nx + x }

// get reads a(x,y,zl) treating out-of-range x/y as the zero boundary and
// out-of-slab z through the given ghost planes (nil ghost = domain edge).
// The unsigned compares fold each pair of range tests into one, which is
// what lets get inline into the stencil loops (scripts/inlinecheck.sh).
func (s *slab) get(a []float64, x, y, zl int, ghLo, ghHi []float64) float64 {
	if uint(x) >= uint(s.nx) || uint(y) >= uint(s.ny) {
		return 0
	}
	switch {
	case zl < 0:
		if ghLo == nil {
			return 0
		}
		return ghLo[y*s.nx+x]
	case zl >= s.nzLoc:
		if ghHi == nil {
			return 0
		}
		return ghHi[y*s.nx+x]
	default:
		return a[s.idx(x, y, zl)]
	}
}

// points is the number of grid points in the slab.
func (s *slab) points() uint64 { return uint64(s.nx * s.ny * s.nzLoc) }

// applyA computes w = A u over the slab (ghosts supply z neighbours).
func applyA(fc *fpe.Ctx, s *slab, cf coeffs, u, ghLo, ghHi, w []float64) {
	if n := s.points(); fc.Reserve(13 * n) {
		for zl := 0; zl < s.nzLoc; zl++ {
			for y := 0; y < s.ny; y++ {
				for x := 0; x < s.nx; x++ {
					acc := float64(cf.d * u[s.idx(x, y, zl)])
					acc += float64(cf.aW * s.get(u, x-1, y, zl, ghLo, ghHi))
					acc += float64(cf.aE * s.get(u, x+1, y, zl, ghLo, ghHi))
					acc += float64(cf.aS * s.get(u, x, y-1, zl, ghLo, ghHi))
					acc += float64(cf.aN * s.get(u, x, y+1, zl, ghLo, ghHi))
					acc += float64(cf.aB * s.get(u, x, y, zl-1, ghLo, ghHi))
					acc += float64(cf.aT * s.get(u, x, y, zl+1, ghLo, ghHi))
					w[s.idx(x, y, zl)] = acc
				}
			}
		}
		fc.Tally(6*n, 0, 7*n, 0)
		return
	}
	for zl := 0; zl < s.nzLoc; zl++ {
		for y := 0; y < s.ny; y++ {
			for x := 0; x < s.nx; x++ {
				acc := fc.Mul(cf.d, u[s.idx(x, y, zl)])
				acc = fc.Add(acc, fc.Mul(cf.aW, s.get(u, x-1, y, zl, ghLo, ghHi)))
				acc = fc.Add(acc, fc.Mul(cf.aE, s.get(u, x+1, y, zl, ghLo, ghHi)))
				acc = fc.Add(acc, fc.Mul(cf.aS, s.get(u, x, y-1, zl, ghLo, ghHi)))
				acc = fc.Add(acc, fc.Mul(cf.aN, s.get(u, x, y+1, zl, ghLo, ghHi)))
				acc = fc.Add(acc, fc.Mul(cf.aB, s.get(u, x, y, zl-1, ghLo, ghHi)))
				acc = fc.Add(acc, fc.Mul(cf.aT, s.get(u, x, y, zl+1, ghLo, ghHi)))
				w[s.idx(x, y, zl)] = acc
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
	if n := s.points(); fc.Reserve(7 * n) {
		for zl := 0; zl < s.nzLoc; zl++ {
			for y := 0; y < s.ny; y++ {
				for x := 0; x < s.nx; x++ {
					lsum := float64(cf.aW * s.get(v, x-1, y, zl, ghLo, nil))
					lsum += float64(cf.aS * s.get(v, x, y-1, zl, ghLo, nil))
					lsum += float64(cf.aB * s.get(v, x, y, zl-1, ghLo, nil))
					num := r[s.idx(x, y, zl)] - float64(omega*lsum)
					v[s.idx(x, y, zl)] = num / cf.d
				}
			}
		}
		fc.Tally(2*n, n, 4*n, n)
	} else {
		for zl := 0; zl < s.nzLoc; zl++ {
			for y := 0; y < s.ny; y++ {
				for x := 0; x < s.nx; x++ {
					lsum := fc.Mul(cf.aW, s.get(v, x-1, y, zl, ghLo, nil))
					lsum = fc.Add(lsum, fc.Mul(cf.aS, s.get(v, x, y-1, zl, ghLo, nil)))
					lsum = fc.Add(lsum, fc.Mul(cf.aB, s.get(v, x, y, zl-1, ghLo, nil)))
					num := fc.Sub(r[s.idx(x, y, zl)], fc.Mul(omega, lsum))
					v[s.idx(x, y, zl)] = fc.Div(num, cf.d)
				}
			}
		}
	}
	if rank < p-1 {
		comm.Send(rank+1, tagFwd, v[(s.nzLoc-1)*s.nx*s.ny:])
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
	if n := s.points(); fc.Reserve(8 * n) {
		for zl := s.nzLoc - 1; zl >= 0; zl-- {
			for y := s.ny - 1; y >= 0; y-- {
				for x := s.nx - 1; x >= 0; x-- {
					usum := float64(cf.aE * s.get(w, x+1, y, zl, nil, ghHi))
					usum += float64(cf.aN * s.get(w, x, y+1, zl, nil, ghHi))
					usum += float64(cf.aT * s.get(w, x, y, zl+1, nil, ghHi))
					num := float64(cf.d*v[s.idx(x, y, zl)]) - float64(omega*usum)
					w[s.idx(x, y, zl)] = num / cf.d
				}
			}
		}
		fc.Tally(2*n, n, 5*n, n)
	} else {
		for zl := s.nzLoc - 1; zl >= 0; zl-- {
			for y := s.ny - 1; y >= 0; y-- {
				for x := s.nx - 1; x >= 0; x-- {
					usum := fc.Mul(cf.aE, s.get(w, x+1, y, zl, nil, ghHi))
					usum = fc.Add(usum, fc.Mul(cf.aN, s.get(w, x, y+1, zl, nil, ghHi)))
					usum = fc.Add(usum, fc.Mul(cf.aT, s.get(w, x, y, zl+1, nil, ghHi)))
					num := fc.Sub(fc.Mul(cf.d, v[s.idx(x, y, zl)]), fc.Mul(omega, usum))
					w[s.idx(x, y, zl)] = fc.Div(num, cf.d)
				}
			}
		}
	}
	if rank > 0 {
		comm.Send(rank-1, tagBwd, w[:s.nx*s.ny])
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
	s := &slab{nx: pr.nx, ny: pr.ny, nzLoc: zhi - zlo, zlo: zlo, nz: pr.nz}
	cf := makeCoeffs(pr)

	plane := s.nx * s.ny
	n := plane * s.nzLoc
	rhs := rhsField(class, pr)[zlo*plane : zhi*plane]
	u := make([]float64, n)
	// Per-iteration temporaries, made once: A u, the residual, the two
	// sweeps' solutions, and the neighbours' planes.
	au, r, v, w := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
	below, above := make([]float64, plane), make([]float64, plane)

	n3 := float64(pr.nx) * float64(pr.ny) * float64(pr.nz)
	var rnorm float64
	carry := &apps.Carry{Vecs: [][]float64{u}}
	for it := st.Resume(carry); it < pr.niter; it++ {
		ghLo, ghHi := apps.HaloExchange1D(comm, tagHalo, u[:plane], u[n-plane:], below, above)
		applyA(fc, s, cf, u, ghLo, ghHi, au)
		if fc.Reserve(uint64(n)) {
			for i := range r {
				r[i] = rhs[i] - au[i]
			}
			fc.Tally(0, uint64(n), 0, 0)
		} else {
			for i := range r {
				r[i] = fc.Sub(rhs[i], au[i])
			}
		}
		forwardSweep(fc, comm, s, cf, pr.omega, r, below, v)
		backwardSweep(fc, comm, s, cf, pr.omega, v, above, w)
		if fc.Reserve(uint64(n)) {
			for i := range u {
				u[i] += w[i]
			}
			fc.Tally(uint64(n), 0, 0, 0)
		} else {
			for i := range u {
				u[i] = fc.Add(u[i], w[i])
			}
		}
		rnorm = math.Sqrt(comm.AllreduceValue(simmpi.OpSum, fc.Dot(r, r)) / n3)
		st.Mark(it+1, carry)
	}
	// Solution RMS norm, the second verification value.
	unorm := math.Sqrt(comm.AllreduceValue(simmpi.OpSum, fc.Dot(u, u)) / n3)

	state := make([]float64, n)
	copy(state, u)
	return apps.RankOutput{State: state, Check: []float64{rnorm, unorm}}, nil
}

// Verify implements the LU checker: the residual and solution norms must
// match the fault-free values within tolerance.
func (App) Verify(golden, check []float64) bool {
	return apps.VerifyRel(golden, check, 1e-8)
}
