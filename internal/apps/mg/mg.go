// Package mg implements the NPB MG benchmark: V-cycle multigrid applied to
// the 3-D Poisson equation -lap(u) = v on a periodic grid, where v is a set
// of balanced +1/-1 point charges, run for a fixed number of cycles with
// the L2 residual norm as the verification value (NAS Parallel Benchmarks
// 3.3, kernel MG).
//
// Parallel decomposition: planes of the grid are block-distributed along z
// with periodic ring halo exchange at every smoothing, residual and
// restriction step, on every level with at least two planes per rank.  The
// levels coarser than that are rank 0's alone (coarse-level agglomeration
// onto one rank): at the cutover every rank restricts its slab and sends it
// to rank 0, which runs the coarse V-cycle serially and sends each rank back
// the coarse planes its slab interpolates from.  The ranks together do the
// serial run's arithmetic, op for op.  A fault on a rank's slab spreads
// locally plane-by-plane through halos; one in rank 0's coarse work reaches
// every rank through the correction — the mixed propagation profile the
// paper observes for MG.
//
// MG has no parallel-unique computation (paper Table 1): the halo and
// cutover planes are sent directly from the working arrays with no staging
// arithmetic.
package mg

import (
	"math"

	"resmod/internal/apps"
	"resmod/internal/fpe"
	"resmod/internal/simmpi"
)

// params describes one problem class.
type params struct {
	nx, ny, nz int // finest grid
	levels     int
	niter      int // V-cycles
	charges    int // +1 charges (same number of -1 charges)
	seed       uint64
	coarseIter int // smoothing sweeps on the coarsest level
	weight     float64
}

// maxLevels is the most grid levels a class has: a run's level headers
// live in an array of that many on its stack.
const maxLevels = 4

var classes = map[string]params{
	"S": {nx: 8, ny: 8, nz: 128, levels: 3, niter: 3, charges: 10,
		seed: 0x36_5, coarseIter: 4, weight: 0.8},
	// A larger class with one more grid level, for scaling studies.
	"A": {nx: 16, ny: 16, nz: 256, levels: 4, niter: 3, charges: 20,
		seed: 0x36_A, coarseIter: 4, weight: 0.8},
}

// App is the MG benchmark.
type App struct{}

func init() { apps.Register(App{}) }

// Name returns "MG".
func (App) Name() string { return "MG" }

// Classes returns the supported problem classes.
func (App) Classes() []string { return []string{"S", "A"} }

// DefaultClass returns "S".
func (App) DefaultClass() string { return "S" }

// MaxProcs returns the largest supported rank count: each rank must own at
// least two planes of the finest grid so that restriction stays local.
func (App) MaxProcs(class string) int {
	p, ok := classes[class]
	if !ok {
		return 0
	}
	return p.nz / 2
}

// level describes one grid level's geometry and distribution on this rank,
// and holds its arrays, which Run draws from the rank's working set.
type level struct {
	nx, ny, nz  int
	distributed bool
	// zlo, zhi are the global planes this rank holds: its block on a
	// distributed level, [0, nz) on rank 0's own levels, at the cutover the
	// block its fine slab restricts to, and none on those below it.
	zlo, zhi int

	// r and z are the level's residual and correction.  below and above
	// receive the neighbours' planes on a distributed level; above, rank
	// 0's plane over the block at the cutover.
	r, z, below, above []float64
}

// cutoverTag marks the messages between rank 0 and the others at the
// cutover; the halo tags start above it.
const cutoverTag = 1

// nzLoc returns the number of locally stored planes.
func (l *level) nzLoc() int { return l.zhi - l.zlo }

// points returns the number of locally stored grid points.
func (l *level) points() int { return l.nx * l.ny * l.nzLoc() }

// plane returns the number of grid points in one plane.
func (l *level) plane() uint64 { return uint64(l.nx * l.ny) }

// ghosts returns the periodic ghost planes below and above this rank's
// slab of array a.  A distributed level exchanges with its ring neighbours,
// receiving into its below and above; a whole (rank 0's, or serial) one
// wraps locally, and its ghosts are a's own top and bottom planes — every kernel
// reads a and its ghosts to the end before anything writes to a.
func (l *level) ghosts(comm *simmpi.Comm, tag int, a []float64) (lo, hi []float64) {
	sz := l.nx * l.ny
	top := a[(l.nzLoc()-1)*sz : l.nzLoc()*sz]
	if !l.distributed {
		return top, a[:sz]
	}
	p := comm.Size()
	r := comm.Rank()
	down := (r - 1 + p) % p
	up := (r + 1) % p
	comm.Send(down, tag, a[:sz])
	comm.Send(up, tag+1, top)
	comm.RecvInto(up, tag, l.above)
	comm.RecvInto(down, tag+1, l.below)
	return l.below, l.above
}

// faces are the rows a 7-point stencil reads around one row of a plane: the
// row c, its south and north neighbours in the plane (periodic), and the
// rows below and above it, of the planes b and t.
type faces struct{ c, s, n, b, t []float64 }

// facesOf returns the faces of row y of plane cp, of rows of nx points, with
// bp and tp the planes below and above it.
func facesOf(cp, bp, tp []float64, nx, y int) faces {
	last, first := cp[len(cp)-nx:], cp[:nx]
	return faces{
		c: apps.Row(cp, nx, y),
		s: apps.Layer(cp, nx, y-1, last, first),
		n: apps.Layer(cp, nx, y+1, last, first),
		b: apps.Row(bp, nx, y),
		t: apps.Row(tp, nx, y),
	}
}

// wrap returns x in [0, n) periodically, for x in [-1, n].
func wrap(x, n int) int {
	switch x {
	case -1:
		return n - 1
	case n:
		return 0
	}
	return x
}

// sum returns the sum of the six face neighbours of x: five plain adds.
func (f *faces) sum(x int) float64 {
	s := f.c[wrap(x-1, len(f.c))] + f.c[wrap(x+1, len(f.c))]
	s += f.s[x]
	s += f.n[x]
	s += f.b[x]
	return s + f.t[x]
}

// sumOp is sum with the adds through fc, in the same order.
func (f *faces) sumOp(fc *fpe.Ctx, x int) float64 {
	s := fc.Add(f.c[wrap(x-1, len(f.c))], f.c[wrap(x+1, len(f.c))])
	s = fc.Add(s, f.s[x])
	s = fc.Add(s, f.n[x])
	s = fc.Add(s, f.b[x])
	return fc.Add(s, f.t[x])
}

// planes returns plane zl of a level's array a and the planes below and
// above it, through the ghosts where they fall outside the slab.
func (l *level) planes(a []float64, zl int, ghLo, ghHi []float64) (c, b, t []float64) {
	sz := l.nx * l.ny
	return apps.Layer(a, sz, zl, nil, nil), apps.Layer(a, sz, zl-1, ghLo, ghHi), apps.Layer(a, sz, zl+1, ghLo, ghHi)
}

// residual computes r = v - A u over the slab, where A is the 7-point
// periodic Laplacian (Au = 6u - sum of neighbours), a window per plane.
func residual(fc *fpe.Ctx, l *level, u, v, ghLo, ghHi, r []float64) {
	nx, n := l.nx, l.plane()
	for zl := 0; zl < l.nzLoc(); zl++ {
		cp, bp, tp := l.planes(u, zl, ghLo, ghHi)
		vp, rp := apps.Layer(v, int(n), zl, nil, nil), apps.Layer(r, int(n), zl, nil, nil)
		if fc.Reserve(8 * n) {
			for y := 0; y < l.ny; y++ {
				f, vr, rr := facesOf(cp, bp, tp, nx, y), apps.Row(vp, nx, y), apps.Row(rp, nx, y)
				for x, ux := range f.c {
					au := float64(6*ux) - f.sum(x)
					rr[x] = vr[x] - au
				}
			}
			fc.Tally(5*n, 2*n, n, 0)
			continue
		}
		for y := 0; y < l.ny; y++ {
			f, vr, rr := facesOf(cp, bp, tp, nx, y), apps.Row(vp, nx, y), apps.Row(rp, nx, y)
			for x, ux := range f.c {
				au := fc.Sub(fc.Mul(6, ux), f.sumOp(fc, x))
				rr[x] = fc.Sub(vr[x], au)
			}
		}
	}
}

// smooth applies one weighted-Jacobi sweep to the level: z += w/6 * (r - A z).
// The update is staged in upd between the sweep over A z and the addition;
// upd may be r itself — element i of the residual is read once, just before
// update i is stored — when the caller has no further use for r.
func smooth(fc *fpe.Ctx, comm *simmpi.Comm, tag int, l *level, upd []float64, w float64) {
	z, r := l.z, l.r
	ghLo, ghHi := l.ghosts(comm, tag, z)
	w6 := w / 6
	nx, n := l.nx, l.plane()
	for zl := 0; zl < l.nzLoc(); zl++ {
		cp, bp, tp := l.planes(z, zl, ghLo, ghHi)
		rp, up := apps.Layer(r, int(n), zl, nil, nil), apps.Layer(upd, int(n), zl, nil, nil)
		if fc.Reserve(9 * n) {
			for y := 0; y < l.ny; y++ {
				f, rr, ur := facesOf(cp, bp, tp, nx, y), apps.Row(rp, nx, y), apps.Row(up, nx, y)
				for x, zx := range f.c {
					az := float64(6*zx) - f.sum(x)
					ur[x] = float64(w6 * (rr[x] - az))
				}
			}
			fc.Tally(5*n, 2*n, 2*n, 0)
			continue
		}
		for y := 0; y < l.ny; y++ {
			f, rr, ur := facesOf(cp, bp, tp, nx, y), apps.Row(rp, nx, y), apps.Row(up, nx, y)
			for x, zx := range f.c {
				az := fc.Sub(fc.Mul(6, zx), f.sumOp(fc, x))
				ur[x] = fc.Mul(w6, fc.Sub(rr[x], az))
			}
		}
	}
	fc.AddVec(z, z, upd[:len(z)])
}

// restrictTo projects the fine residual onto the coarse level:
// c = 1/2 * fine(center) + 1/12 * (six fine face neighbours).
// Each rank computes the coarse planes of its fine slab; at the cutover rank
// 0 gathers them into the whole level.
func restrictTo(fc *fpe.Ctx, comm *simmpi.Comm, tag int, fine, coarse *level) {
	rf, rc := fine.r, coarse.r
	ghLo, _ := fine.ghosts(comm, tag, rf)
	// Coarse planes derived from this rank's fine slab, the first of rc's.
	cklo, ckhi := fine.zlo/2, fine.zhi/2
	n := (ckhi - cklo) * coarse.ny * coarse.nx
	const wC, wF = 0.5, 1.0 / 12.0
	nx, pc := coarse.nx, coarse.plane()
	for ck := cklo; ck < ckhi; ck++ {
		// The fine centre's plane is even, so the plane above it is local.
		cp, bp, tp := fine.planes(rf, 2*ck-fine.zlo, ghLo, nil)
		op := apps.Layer(rc, int(pc), ck-cklo, nil, nil)
		if fc.Reserve(8 * pc) {
			for cy := 0; cy < coarse.ny; cy++ {
				f, out := facesOf(cp, bp, tp, fine.nx, 2*cy), apps.Row(op, nx, cy)
				for cx := range out {
					out[cx] = float64(wC*f.c[2*cx]) + float64(wF*f.sum(2*cx))
				}
			}
			fc.Tally(6*pc, 0, 2*pc, 0)
			continue
		}
		for cy := 0; cy < coarse.ny; cy++ {
			f, out := facesOf(cp, bp, tp, fine.nx, 2*cy), apps.Row(op, nx, cy)
			for cx := range out {
				faces := f.sumOp(fc, 2*cx)
				out[cx] = fc.Add(fc.Mul(wC, f.c[2*cx]), fc.Mul(wF, faces))
			}
		}
	}
	switch {
	case coarse.distributed || !fine.distributed: // rc is this rank's to keep
	case comm.Rank() == 0:
		for src := 1; src < comm.Size(); src++ {
			comm.RecvInto(src, cutoverTag, rc[src*n:(src+1)*n])
		}
	default:
		comm.Send(0, cutoverTag, rc)
	}
}

// interpAdd adds the trilinear interpolation of the coarse correction into
// the fine one.  A fine slab reads the coarse planes fine.zlo/2 through
// fine.zhi/2: at the cutover rank 0 sends each rank those planes, as its
// block and the plane above it.
func interpAdd(fc *fpe.Ctx, comm *simmpi.Comm, tag int, coarse, fine *level) {
	zc, zf := coarse.z, fine.z
	sz := coarse.nx * coarse.ny
	// ghHi is the coarse plane just above the slab: periodically, the
	// level's first plane when zc is the whole level (serial, or rank 0's
	// below the cutover).
	ghHi := zc[:sz]
	switch n := fine.nzLoc() / 2; {
	case coarse.distributed:
		_, ghHi = coarse.ghosts(comm, tag, zc)
	case fine.distributed && comm.Rank() == 0:
		for dst := 1; dst < comm.Size(); dst++ {
			comm.Send(dst, cutoverTag, zc[dst*n*sz:(dst+1)*n*sz])
			top := (dst + 1) * n % coarse.nz
			comm.Send(dst, cutoverTag, zc[top*sz:(top+1)*sz])
		}
	case fine.distributed:
		comm.RecvInto(0, cutoverTag, zc)
		comm.RecvInto(0, cutoverTag, coarse.above)
		ghHi = coarse.above
	}
	nx, n := fine.nx, fine.plane()
	var corners [4][]float64
	for fz := fine.zlo; fz < fine.zhi; fz++ {
		ck := fz/2 - coarse.zlo
		planes := [2][]float64{apps.Layer(zc, sz, ck, nil, ghHi), apps.Layer(zc, sz, ck+1, nil, ghHi)}
		zp := apps.Layer(zf, int(n), fz-fine.zlo, nil, nil)
		if fc.Reserve(10 * n) {
			var adds uint64
			for fy := 0; fy < fine.ny; fy++ {
				rows, out := coarseRows(&corners, planes, coarse.nx, fy, fz), apps.Row(zp, nx, fy)
				for fx := range out {
					var sum float64
					for dx := 0; dx <= fx%2; dx++ {
						for _, r := range rows {
							sum += r[wrap(fx/2+dx, coarse.nx)]
						}
					}
					terms := len(rows) * (1 + fx%2)
					out[fx] += float64(sum * (1 / float64(terms)))
					adds += uint64(terms) + 1
				}
			}
			fc.Tally(adds, 0, n, 0)
			continue
		}
		for fy := 0; fy < fine.ny; fy++ {
			rows, out := coarseRows(&corners, planes, coarse.nx, fy, fz), apps.Row(zp, nx, fy)
			for fx := range out {
				// Trilinear: average the 2^odd corner values.
				var sum float64
				for dx := 0; dx <= fx%2; dx++ {
					for _, r := range rows {
						sum = fc.Add(sum, r[wrap(fx/2+dx, coarse.nx)])
					}
				}
				v := fc.Mul(sum, 1/float64(len(rows)*(1+fx%2)))
				out[fx] = fc.Add(out[fx], v)
			}
		}
	}
}

// coarseRows returns, in buf, the coarse rows the fine row (fy, fz) reads
// its corner values from: cy = fy/2 and, when fy is odd, cy+1 (periodic),
// each of the coarse plane fz/2 and, when fz is odd, of the plane above —
// in the order the trilinear sum adds them, y before z.
func coarseRows(buf *[4][]float64, planes [2][]float64, nx, fy, fz int) [][]float64 {
	k := 0
	for dy := 0; dy <= fy%2; dy++ {
		for dz := 0; dz <= fz%2; dz++ {
			p := planes[dz]
			buf[k] = apps.Layer(p, nx, fy/2+dy, nil, p[:nx])
			k++
		}
	}
	return buf[:k]
}

// Run executes the benchmark on this rank, with a step boundary after
// every V-cycle and its residual.  The message tag counter is carried with
// the solution.
func (a App) Run(fc *fpe.Ctx, comm *simmpi.Comm, class string, st *apps.Steps) (apps.RankOutput, error) {
	pr, ok := classes[class]
	if !ok {
		return apps.RankOutput{}, &apps.ErrBadProcs{App: "MG", Class: class, Procs: comm.Size(),
			Reason: "unknown class"}
	}
	if err := apps.CheckProcs(a, class, comm.Size()); err != nil {
		return apps.RankOutput{}, err
	}
	p := comm.Size()

	// Build the levels, finest first.
	var headers [maxLevels]level
	levels := headers[:pr.levels]
	for li := range levels {
		sh := 1 << li
		l := &levels[li]
		l.nx, l.ny, l.nz = pr.nx/sh, pr.ny/sh, pr.nz/sh
		// A distributed level needs at least two planes per rank so the
		// restriction of every owned coarse plane's fine centre is local.
		l.distributed = p > 1 && l.nz >= 2*p
		switch sz := l.nx * l.ny; {
		case l.distributed:
			l.zlo, l.zhi = apps.Block1D(l.nz, p, comm.Rank())
			l.below, l.above = st.Floats(sz), st.Floats(sz)
		case comm.Rank() == 0:
			l.zlo, l.zhi = 0, l.nz
		case levels[li-1].distributed:
			l.zlo, l.zhi = levels[li-1].zlo/2, levels[li-1].zhi/2
			l.above = st.Floats(sz)
		}
		l.r, l.z = st.Floats(l.points()), st.Floats(l.points())
	}
	fine := &levels[0]

	// The right-hand side: balanced point charges at hashed positions
	// (setup, uninstrumented, identical at every scale).
	n3 := pr.nx * pr.ny * pr.nz
	v := st.Floats(fine.points())
	place := func(h uint64, val float64) {
		g := int(h % uint64(n3))
		z := g / (pr.nx * pr.ny)
		if z >= fine.zlo && z < fine.zhi {
			// Accumulate so colliding +1/-1 charges cancel and the RHS
			// stays zero-mean (the periodic operator's compatibility
			// condition).
			v[g-fine.zlo*pr.nx*pr.ny] += val
		}
	}
	x := pr.seed
	for c := 0; c < pr.charges; c++ {
		place(splitmix(&x), 1)
		place(splitmix(&x), -1)
	}

	u := st.Floats(len(v))
	copy(fine.r, v)
	upd := st.Floats(len(levels[pr.levels-1].r))

	var rnorm float64
	tag := 100
	carry := &apps.Carry{Vecs: [][]float64{u, fine.r}, Ints: []*int{&tag}}
	for it := st.Resume(carry); it < pr.niter; it++ {
		vcycle(fc, comm, pr, levels, upd, &tag)
		fc.AddVec(u, u, fine.z)
		ghLo, ghHi := fine.ghosts(comm, tag, u)
		tag += 2
		residual(fc, fine, u, v, ghLo, ghHi, fine.r)
		local := fc.Dot(fine.r, fine.r)
		rnorm = math.Sqrt(comm.AllreduceValue(simmpi.OpSum, local) / float64(n3))
		st.Mark(it+1, carry)
	}

	return apps.RankOutput{State: u, Check: []float64{rnorm}}, nil
}

// vcycle runs one multigrid V-cycle on the residual in the finest level's r
// and leaves the correction in its z.  It consumes r.  upd is the coarsest
// level's staging array.  Past the cutover only rank 0 works; the others
// step the tags with it.
func vcycle(fc *fpe.Ctx, comm *simmpi.Comm, pr params, levels []level, upd []float64, tag *int) {
	L := len(levels)
	works := func(l *level) bool { return l.distributed || comm.Rank() == 0 }
	// Down: restrict residuals to the coarsest level.
	for li := 1; li < L; li++ {
		if works(&levels[li-1]) {
			restrictTo(fc, comm, *tag, &levels[li-1], &levels[li])
		}
		*tag += 2
	}
	// Coarsest: several smoothing sweeps from zero.
	if c := &levels[L-1]; works(c) {
		clear(c.z)
		for s := 0; s < pr.coarseIter; s++ {
			smooth(fc, comm, *tag+2*s, c, upd, pr.weight)
		}
	}
	*tag += 2 * pr.coarseIter
	// Up: interpolate the correction (into zero) and post-smooth against
	// this level's residual equation A z = r.  That sweep is the last
	// reader of the level's residual, so it stages its update there.
	for li := L - 2; li >= 0; li-- {
		if l := &levels[li]; works(l) {
			clear(l.z)
			interpAdd(fc, comm, *tag, &levels[li+1], l)
			smooth(fc, comm, *tag+2, l, l.r, pr.weight)
		}
		*tag += 4
	}
}

func splitmix(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Verify implements the MG checker: the final residual norm must match the
// fault-free value within tolerance.
func (App) Verify(golden, check []float64) bool {
	return apps.VerifyRel(golden, check, 1e-8)
}
