// Package minife implements resmod's analog of the MiniFE proxy
// application: finite-element assembly of a variable-coefficient diffusion
// operator on a 3-D node grid followed by a fixed-iteration conjugate
// gradient solve (Mantevo MiniFE, Heroux et al. 2009).
//
// Assembly is edge-based lowest-order FEM: for every grid edge a
// conductivity coefficient is evaluated and accumulated into the two
// incident nodes' stencil coefficients — instrumented arithmetic that runs
// identically in serial and parallel (common computation).  Edges to the
// Dirichlet boundary contribute only to the interior diagonal.
//
// The CG solve distributes node planes along z; the matvec needs only the
// two neighbour planes (halo exchange), while the inner products are
// allreduced, so — like NPB CG — a surviving error reaches every rank
// through the very next global scalar (alpha/beta).  The parallel-unique
// computation is the checksum guard each rank accumulates over the halo
// planes it is about to send (paper Table 1 shows MiniFE's unique fraction
// is small and shrinks with problem size).
package minife

import (
	"math"
	"sync"

	"resmod/internal/apps"
	"resmod/internal/fpe"
	"resmod/internal/simmpi"
)

// params describes one problem class (named after MiniFE's nx=ny=nz input
// convention).
type params struct {
	nx, ny, nz int // interior node grid
	cgIters    int
	seed       uint64
}

var classes = map[string]params{
	"30":  {nx: 8, ny: 8, nz: 64, cgIters: 18, seed: 0x3F_30},
	"300": {nx: 8, ny: 8, nz: 128, cgIters: 18, seed: 0x3F_300},
}

// App is the MiniFE benchmark.
type App struct{}

func init() { apps.Register(App{}) }

// Name returns "MiniFE".
func (App) Name() string { return "MiniFE" }

// Classes returns the supported problem classes.
func (App) Classes() []string { return []string{"30", "300"} }

// DefaultClass returns "30".
func (App) DefaultClass() string { return "30" }

// MaxProcs returns the largest supported rank count (one node plane per
// rank).
func (App) MaxProcs(class string) int {
	p, ok := classes[class]
	if !ok {
		return 0
	}
	return p.nz
}

// stencil holds the assembled 7-point operator coefficients for the local
// slab: for node i, center[i] and the six directional couplings.
type stencil struct {
	nx, ny, nzLoc int
	zlo           int
	center        []float64
	w, e, s, n    []float64 // x-/x+/y-/y+ couplings
	b, t          []float64 // z-/z+ couplings
}

func (st *stencil) idx(x, y, zl int) int { return (zl*st.ny+y)*st.nx + x }

// conductivity returns the deterministic edge coefficient for the edge
// leaving global node (x,y,z) in direction dir (0=x,1=y,2=z): a smooth,
// strictly positive field, identical at every scale.
func conductivity(pr params, x, y, z, dir int) float64 {
	h := pr.seed + uint64(((z*pr.ny+y)*pr.nx+x)*3+dir)*0x9e3779b97f4a7c15
	h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
	h ^= h >> 31
	return 1 + 0.5*float64(h>>11)/(1<<53)
}

// assemble builds the local stencil by edge assembly, into arrays drawn
// from ws.  Every edge incident to a local node is assembled; edges
// crossing the slab boundary are evaluated redundantly by both ranks (each
// accumulates its own side), so the assembled operator is identical at
// every scale.
func assemble(fc *fpe.Ctx, ws *apps.Steps, pr params, zlo, zhi int) stencil {
	nzLoc := zhi - zlo
	n := pr.nx * pr.ny * nzLoc
	st := stencil{
		nx: pr.nx, ny: pr.ny, nzLoc: nzLoc, zlo: zlo,
		center: ws.Floats(n),
		w:      ws.Floats(n), e: ws.Floats(n),
		s: ws.Floats(n), n: ws.Floats(n),
		b: ws.Floats(n), t: ws.Floats(n),
	}
	for zl := 0; zl < nzLoc; zl++ {
		z := zlo + zl
		for y := 0; y < pr.ny; y++ {
			for x := 0; x < pr.nx; x++ {
				i := st.idx(x, y, zl)
				// Edge in +x (to x+1 or the Dirichlet boundary).
				k := conductivity(pr, x, y, z, 0)
				st.center[i] = fc.Add(st.center[i], k)
				if x+1 < pr.nx {
					st.e[i] = fc.Sub(st.e[i], k)
				}
				// Edge in -x (assembled from the left node's +x edge).
				if x > 0 {
					kl := conductivity(pr, x-1, y, z, 0)
					st.center[i] = fc.Add(st.center[i], kl)
					st.w[i] = fc.Sub(st.w[i], kl)
				} else {
					// Boundary edge into the wall at x=-1.
					st.center[i] = fc.Add(st.center[i], conductivity(pr, x-1+pr.nx, y, z, 0))
				}
				// Same pattern in y.
				k = conductivity(pr, x, y, z, 1)
				st.center[i] = fc.Add(st.center[i], k)
				if y+1 < pr.ny {
					st.n[i] = fc.Sub(st.n[i], k)
				}
				if y > 0 {
					kl := conductivity(pr, x, y-1, z, 1)
					st.center[i] = fc.Add(st.center[i], kl)
					st.s[i] = fc.Sub(st.s[i], kl)
				} else {
					st.center[i] = fc.Add(st.center[i], conductivity(pr, x, y-1+pr.ny, z, 1))
				}
				// And in z (global coordinates; couplings may cross ranks).
				k = conductivity(pr, x, y, z, 2)
				st.center[i] = fc.Add(st.center[i], k)
				if z+1 < pr.nz {
					st.t[i] = fc.Sub(st.t[i], k)
				}
				if z > 0 {
					kl := conductivity(pr, x, y, z-1, 2)
					st.center[i] = fc.Add(st.center[i], kl)
					st.b[i] = fc.Sub(st.b[i], kl)
				} else {
					st.center[i] = fc.Add(st.center[i], conductivity(pr, x, y, z-1+pr.nz, 2))
				}
			}
		}
	}
	return st
}

// tagHalo and tagHalo+1 carry the planes sent downward (to rank-1) and
// upward.
const tagHalo = 200

// haloPlanes exchanges the boundary planes of u with the z neighbours into
// below and above, accumulating the parallel-unique checksum guard over
// each plane sent.  A ghost beyond a domain end is nil.
func haloPlanes(fc *fpe.Ctx, comm *simmpi.Comm, st *stencil, u, below, above []float64) (ghLo, ghHi []float64) {
	r, p := comm.Rank(), comm.Size()
	if p == 1 {
		return nil, nil
	}
	sz := st.nx * st.ny
	end := fc.Begin("halo-guard", fpe.Unique)
	guard := 0.0
	if r > 0 {
		for _, v := range u[:sz] {
			guard = fc.Add(guard, v)
		}
	}
	if r < p-1 {
		for _, v := range u[(st.nzLoc-1)*sz:] {
			guard = fc.Add(guard, v)
		}
	}
	end()
	_ = guard // models MiniFE's exchange-preparation arithmetic
	return apps.HaloExchange1D(comm, tagHalo, u[:sz], u[(st.nzLoc-1)*sz:], below, above)
}

// matvec computes w = A u with the assembled stencil (Dirichlet-zero
// outside the box; slab boundaries through ghosts), a window per plane.
func matvec(fc *fpe.Ctx, st *stencil, u, w, ghLo, ghHi []float64) {
	nx, sz := st.nx, st.nx*st.ny
	n := uint64(sz)
	for zl := 0; zl < st.nzLoc; zl++ {
		up, bp, tp := apps.Layer(u, sz, zl, nil, nil), apps.Layer(u, sz, zl-1, ghLo, ghHi), apps.Layer(u, sz, zl+1, ghLo, ghHi)
		if fc.Reserve(13 * n) {
			for y := 0; y < st.ny; y++ {
				c, so, no, bo, to := apps.Row(up, nx, y), apps.Row(up, nx, y-1), apps.Row(up, nx, y+1), apps.Row(bp, nx, y), apps.Row(tp, nx, y)
				for x, ux := range c {
					i := st.idx(x, y, zl)
					uw, ue := apps.Beside(c, x)
					acc := float64(st.center[i] * ux)
					acc += float64(st.w[i] * uw)
					acc += float64(st.e[i] * ue)
					acc += float64(st.s[i] * so[x])
					acc += float64(st.n[i] * no[x])
					acc += float64(st.b[i] * bo[x])
					acc += float64(st.t[i] * to[x])
					w[i] = acc
				}
			}
			fc.Tally(6*n, 0, 7*n, 0)
			continue
		}
		for y := 0; y < st.ny; y++ {
			c, so, no, bo, to := apps.Row(up, nx, y), apps.Row(up, nx, y-1), apps.Row(up, nx, y+1), apps.Row(bp, nx, y), apps.Row(tp, nx, y)
			for x, ux := range c {
				i := st.idx(x, y, zl)
				uw, ue := apps.Beside(c, x)
				acc := fc.Mul(st.center[i], ux)
				acc = fc.Add(acc, fc.Mul(st.w[i], uw))
				acc = fc.Add(acc, fc.Mul(st.e[i], ue))
				acc = fc.Add(acc, fc.Mul(st.s[i], so[x]))
				acc = fc.Add(acc, fc.Mul(st.n[i], no[x]))
				acc = fc.Add(acc, fc.Mul(st.b[i], bo[x]))
				acc = fc.Add(acc, fc.Mul(st.t[i], to[x]))
				w[i] = acc
			}
		}
	}
}

// stencils caches each class's operator over the whole grid, assembled by
// a run no fault reaches.  A run that resumes after the assembly step reads
// its slab of it: per node, assembly does the same ops at every scale, so
// the slab is what the run would have assembled.  Read-only, like every
// setup cache (see package apps).
var stencils sync.Map // class seed -> stencil

// assembled returns the fault-free stencil of the planes [zlo, zhi).
func assembled(pr params, zlo, zhi int) stencil {
	v, ok := stencils.Load(pr.seed)
	if !ok {
		v, _ = stencils.LoadOrStore(pr.seed, assemble(fpe.New(), nil, pr, 0, pr.nz))
	}
	full := v.(stencil)
	lo, hi := zlo*pr.nx*pr.ny, zhi*pr.nx*pr.ny
	return stencil{nx: pr.nx, ny: pr.ny, nzLoc: zhi - zlo, zlo: zlo,
		center: full.center[lo:hi], w: full.w[lo:hi], e: full.e[lo:hi],
		s: full.s[lo:hi], n: full.n[lo:hi], b: full.b[lo:hi], t: full.t[lo:hi]}
}

// Run executes the benchmark on this rank.
func (a App) Run(fc *fpe.Ctx, comm *simmpi.Comm, class string) (apps.RankOutput, error) {
	return a.RunSteps(fc, comm, class, nil)
}

// RunSteps is Run in steps: step 0 assembles the operator and starts CG,
// each later step is one CG iteration.
func (a App) RunSteps(fc *fpe.Ctx, comm *simmpi.Comm, class string, steps *apps.Steps) (apps.RankOutput, error) {
	pr, ok := classes[class]
	if !ok {
		return apps.RankOutput{}, &apps.ErrBadProcs{App: "MiniFE", Class: class,
			Procs: comm.Size(), Reason: "unknown class"}
	}
	if err := apps.CheckProcs(a, class, comm.Size()); err != nil {
		return apps.RankOutput{}, err
	}
	zlo, zhi := apps.Block1D(pr.nz, comm.Size(), comm.Rank())
	n := pr.nx * pr.ny * (zhi - zlo)

	// Load vector: unit heat source in the middle of the box (setup).
	f := steps.Floats(n)
	for zl := 0; zl < zhi-zlo; zl++ {
		z := zlo + zl
		if z >= pr.nz/4 && z < 3*pr.nz/4 {
			for y := pr.ny / 4; y < 3*pr.ny/4; y++ {
				for x := pr.nx / 4; x < 3*pr.nx/4; x++ {
					f[(zl*pr.ny+y)*pr.nx+x] = 1
				}
			}
		}
	}

	// Conjugate gradients with a fixed iteration budget.
	u, r, p, q := steps.Floats(n), steps.Floats(n), steps.Floats(n), steps.Floats(n)
	below, above := steps.Floats(pr.nx*pr.ny), steps.Floats(pr.nx*pr.ny)
	var rho float64
	carry := &apps.Carry{Vecs: [][]float64{u, r, p}, Scalars: []*float64{&rho}}
	var st stencil
	from := steps.Resume(carry)
	if from > 0 {
		st = assembled(pr, zlo, zhi)
	}
	for it := from; it <= pr.cgIters; it++ {
		if it == 0 {
			st = assemble(fc, steps, pr, zlo, zhi)
			copy(r, f)
			copy(p, f)
			rho = comm.AllreduceValue(simmpi.OpSum, fc.Dot(r, r))
			steps.Mark(1, carry)
			continue
		}
		ghLo, ghHi := haloPlanes(fc, comm, &st, p, below, above)
		matvec(fc, &st, p, q, ghLo, ghHi)
		d := comm.AllreduceValue(simmpi.OpSum, fc.Dot(p, q))
		alpha := fc.Div(rho, d)
		fc.Axpy(alpha, p, u)
		fc.Axpy(-alpha, q, r)
		rho0 := rho
		rho = comm.AllreduceValue(simmpi.OpSum, fc.Dot(r, r))
		beta := fc.Div(rho, rho0)
		fc.Aypx(beta, r, p)
		steps.Mark(it+1, carry)
	}
	rnorm := math.Sqrt(rho)
	// Verification energy: u . f.
	energy := comm.AllreduceValue(simmpi.OpSum, fc.Dot(u, f))

	return apps.RankOutput{State: u, Check: []float64{rnorm, energy}}, nil
}

// Verify implements the MiniFE checker: the final residual norm and the
// solution energy must match the fault-free values within tolerance.
func (App) Verify(golden, check []float64) bool {
	return apps.VerifyRel(golden, check, 1e-8)
}
