// Package cg implements the NPB CG benchmark: estimating the largest
// eigenvalue of a sparse symmetric positive-definite matrix with inverse
// power iteration, using a fixed number of conjugate-gradient iterations as
// the inner solver (NAS Parallel Benchmarks 3.3, kernel CG).
//
// Parallel decomposition: matrix rows are block-distributed.  Each CG
// iteration gathers the full direction vector with an allgather before the
// local sparse matrix-vector product, and combines inner products with
// allreduce — so an error injected into one rank reaches every rank through
// the very next inner product or matvec, unless rounding masks it first.
// This is the communication structure that gives CG its characteristic
// "one rank or all ranks" error-propagation histogram (paper Figure 1).
//
// The parallel-unique computation (paper Observation 1) is the segment
// checksum each rank accumulates over its allgather contribution — a
// lightweight communication guard standing in for the partial-sum exchange
// arithmetic of the 2-D NPB CG; it does not exist in the serial execution.
package cg

import (
	"math"
	"sync"

	"resmod/internal/apps"
	"resmod/internal/fpe"
	"resmod/internal/simmpi"
	"resmod/internal/stats"
)

// params describes one problem class.
type params struct {
	n       int     // matrix order
	nnzHalf int     // sampled symmetric pairs per row
	outer   int     // power-iteration (outer) iterations
	inner   int     // CG (inner) iterations
	shift   float64 // diagonal shift (ensures SPD, sets eigenvalue scale)
	seed    uint64  // matrix generation seed
}

var classes = map[string]params{
	"S": {n: 1024, nnzHalf: 5, outer: 4, inner: 10, shift: 12.0, seed: 0xC6_5},
	"B": {n: 2048, nnzHalf: 8, outer: 4, inner: 10, shift: 22.0, seed: 0xC6_B},
}

// App is the CG benchmark.
type App struct{}

func init() { apps.Register(App{}) }

// Name returns "CG".
func (App) Name() string { return "CG" }

// Classes returns the supported problem classes.
func (App) Classes() []string { return []string{"S", "B"} }

// DefaultClass returns "S".
func (App) DefaultClass() string { return "S" }

// MaxProcs returns the largest supported rank count.
func (App) MaxProcs(class string) int { return 128 }

// csr is a compressed-sparse-row matrix slice holding rows [rowLo, rowHi).
type csr struct {
	rowLo, rowHi int
	rowPtr       []int
	colIdx       []int
	vals         []float64
}

// blockKey names one row block of one class's matrix.
type blockKey struct {
	seed         uint64
	rowLo, rowHi int
}

// blocks caches every row block a run has asked for, the full matrix
// among them.  Generation and extraction are fault-free setup (like NPB's
// makea), deterministic, and the same for every run of a (class, scale,
// rank), so the thousands of runs of a campaign share one copy — which
// makes a cached block read-only (see package apps).
var blocks sync.Map // blockKey -> *csr

// buildMatrix returns the cached CSR of rows [lo, hi), cut from the full
// matrix on first use.
func buildMatrix(p params, lo, hi int) *csr {
	key := blockKey{p.seed, lo, hi}
	if m, ok := blocks.Load(key); ok {
		return m.(*csr)
	}
	var m *csr
	if lo == 0 && hi == p.n {
		m = generate(p)
	} else {
		m = cutBlock(buildMatrix(p, 0, p.n), lo, hi)
	}
	cached, _ := blocks.LoadOrStore(key, m)
	return cached.(*csr)
}

// cutBlock extracts rows [lo, hi) of the full matrix.  They are a run of
// full's arrays and share them, so a new rank count costs a row-pointer
// array, not a copy of the matrix.
func cutBlock(full *csr, lo, hi int) *csr {
	first, end := full.rowPtr[lo], full.rowPtr[hi]
	m := &csr{rowLo: lo, rowHi: hi, rowPtr: make([]int, hi-lo+1),
		colIdx: full.colIdx[first:end:end], vals: full.vals[first:end:end]}
	for i := range m.rowPtr {
		m.rowPtr[i] = full.rowPtr[lo+i] - first
	}
	return m
}

// generate deterministically builds the full sparse SPD matrix.
// Generation is identical on every rank and is not instrumented: like
// NPB's makea it is setup code, outside the main computation loop that
// fault injection targets.
func generate(p params) *csr {
	rng := stats.NewRNG(p.seed)
	entries := make([]map[int]float64, p.n)
	for i := range entries {
		entries[i] = make(map[int]float64, 2*p.nnzHalf+1)
	}
	for i := 0; i < p.n; i++ {
		for t := 0; t < p.nnzHalf; t++ {
			j := rng.Intn(p.n)
			if j == i {
				continue
			}
			v := rng.Float64() - 0.5
			entries[i][j] += v
			entries[j][i] += v
		}
	}
	// Deterministic column order per row (map iteration order is random).
	sortedCols := func(row map[int]float64) []int {
		cols := make([]int, 0, len(row))
		for j := range row {
			cols = append(cols, j)
		}
		insertionSortInts(cols)
		return cols
	}
	// Diagonal dominance makes the matrix SPD; sum in sorted order so the
	// generated matrix is bit-for-bit deterministic.
	for i := 0; i < p.n; i++ {
		var sum float64
		for _, j := range sortedCols(entries[i]) {
			sum += math.Abs(entries[i][j])
		}
		entries[i][i] = sum + p.shift
	}
	m := &csr{rowLo: 0, rowHi: p.n, rowPtr: make([]int, p.n+1)}
	for i, row := range entries {
		for _, j := range sortedCols(row) {
			m.colIdx = append(m.colIdx, j)
			m.vals = append(m.vals, row[j])
		}
		m.rowPtr[i+1] = len(m.colIdx)
	}
	return m
}

func insertionSortInts(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

// rowBlock is how many rows spmv books by one window: a due injection
// sends one block down the per-op path.
const rowBlock = 32

// row returns local row i's nonzeros and their columns.
func (m *csr) row(i int) (vals []float64, cols []int) {
	lo, hi := m.rowPtr[i], m.rowPtr[i+1]
	vals = m.vals[lo:hi]
	return vals, m.colIdx[lo:hi][:len(vals)]
}

// spmv computes w = A_local * x (x is the full vector) with instrumented
// arithmetic: one mul and one add per nonzero.
func (m *csr) spmv(fc *fpe.Ctx, x, w []float64) {
	for lo := 0; lo < m.rowHi-m.rowLo; lo += rowBlock {
		hi := min(lo+rowBlock, m.rowHi-m.rowLo)
		if nnz := uint64(m.rowPtr[hi] - m.rowPtr[lo]); fc.Reserve(2 * nnz) {
			for i := lo; i < hi; i++ {
				vals, cols := m.row(i)
				var s float64
				for k, v := range vals {
					s += float64(v * x[cols[k]])
				}
				w[i] = s
			}
			fc.Tally(nnz, 0, nnz, 0)
			continue
		}
		for i := lo; i < hi; i++ {
			vals, cols := m.row(i)
			var s float64
			for k, v := range vals {
				s = fc.Add(s, fc.Mul(v, x[cols[k]]))
			}
			w[i] = s
		}
	}
}

// gatherVector assembles the full vector from per-rank segments into full.
// In parallel mode each rank first accumulates a checksum guard over its
// segment — the parallel-unique computation.  A serial run's full vector
// is its segment, so there is nothing to do.
func gatherVector(fc *fpe.Ctx, comm *simmpi.Comm, local, full []float64) {
	if comm.Size() == 1 {
		return
	}
	end := fc.Begin("gather-guard", fpe.Unique)
	var guard float64
	for _, v := range local {
		guard = fc.Add(guard, v)
	}
	end()
	_ = guard // the guard models NPB CG's exchange-preparation arithmetic
	comm.AllgatherInto(full, local)
}

// Run executes the benchmark on this rank.
func (a App) Run(fc *fpe.Ctx, comm *simmpi.Comm, class string) (apps.RankOutput, error) {
	return a.RunSteps(fc, comm, class, nil)
}

// RunSteps is Run with a step boundary after every CG iteration: the outer
// power iterations' inner solves, flattened into one loop.
func (a App) RunSteps(fc *fpe.Ctx, comm *simmpi.Comm, class string, st *apps.Steps) (apps.RankOutput, error) {
	pr, ok := classes[class]
	if !ok {
		return apps.RankOutput{}, &apps.ErrBadProcs{App: "CG", Class: class, Procs: comm.Size(),
			Reason: "unknown class"}
	}
	if err := apps.CheckProcs(a, class, comm.Size()); err != nil {
		return apps.RankOutput{}, err
	}
	lo, hi := apps.Block1D(pr.n, comm.Size(), comm.Rank())
	m := buildMatrix(pr, lo, hi)
	nloc := hi - lo

	x := st.Floats(nloc)
	for i := range x {
		x[i] = 1
	}
	z, r, pvec, q := st.Floats(nloc), st.Floats(nloc), st.Floats(nloc), st.Floats(nloc)
	pfull := pvec // the direction vector over all rows
	if comm.Size() > 1 {
		pfull = st.Floats(pr.n)
	}

	var rho, zeta float64
	carry := &apps.Carry{Vecs: [][]float64{x, z, r, pvec}, Scalars: []*float64{&rho, &zeta}}
	for step := st.Resume(carry); step < pr.outer*pr.inner; step++ {
		cgit := step % pr.inner
		if cgit == 0 {
			// Inner solver: fixed-iteration CG for A z = x.
			for i := range z {
				z[i] = 0
				r[i] = x[i]
				pvec[i] = r[i]
			}
			rho = comm.AllreduceValue(simmpi.OpSum, fc.Dot(r, r))
		}
		gatherVector(fc, comm, pvec, pfull)
		m.spmv(fc, pfull, q)
		d := comm.AllreduceValue(simmpi.OpSum, fc.Dot(pvec, q))
		alpha := fc.Div(rho, d)
		fc.Axpy(alpha, pvec, z)
		fc.Axpy(-alpha, q, r)
		rho0 := rho
		rho = comm.AllreduceValue(simmpi.OpSum, fc.Dot(r, r))
		beta := fc.Div(rho, rho0)
		fc.Aypx(beta, r, pvec)
		if cgit == pr.inner-1 {
			// zeta = shift + 1 / (x . z)
			xz := comm.AllreduceValue(simmpi.OpSum, fc.Dot(x, z))
			zeta = fc.Add(pr.shift, fc.Div(1, xz))
			// x = z / ||z||
			zz := comm.AllreduceValue(simmpi.OpSum, fc.Dot(z, z))
			inv := fc.Div(1, math.Sqrt(zz))
			for i := range x {
				x[i] = fc.Mul(z[i], inv)
			}
		}
		st.Mark(step+1, carry)
	}

	return apps.RankOutput{State: x, Check: []float64{zeta}}, nil
}

// Verify implements the NPB CG checker: the eigenvalue estimate zeta must
// match the fault-free value to the NPB verification tolerance.
func (App) Verify(golden, check []float64) bool {
	return apps.VerifyRel(golden, check, 1e-10)
}
