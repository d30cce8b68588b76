// Package cg2d implements the NPB CG benchmark in its authentic 2-D
// parallelization: the sparse matrix is partitioned over a sqrt(p) x
// sqrt(p) process grid, the matrix-vector product reduces partial results
// across each process row (a row-communicator allreduce), and the reduced
// segment is exchanged with the transpose process so it becomes the next
// iteration's vector segment — NPB CG's reduce/transpose communication
// structure, built on simmpi.Comm.Split.
//
// cg2d is an extension benchmark (the paper's evaluation used the 1-D
// variant in package cg): its error propagation is *staged* — an injected
// error first contaminates the victim's process row, then jumps through
// the transpose to another row, reaching full contamination only after a
// few inner iterations — a propagation profile between CG's all-at-once
// and LU's neighbour-by-neighbour.
//
// Supported rank counts are perfect squares that are powers of two:
// 1, 4, 16, 64.
package cg2d

import (
	"math"

	"resmod/internal/apps"
	"resmod/internal/apps/cg"
	"resmod/internal/fpe"
	"resmod/internal/simmpi"
)

// params describes one problem class (sharing cg's matrix classes).
type params struct {
	class string // underlying cg matrix class
	outer int
	inner int
	shift float64
}

var classes = map[string]params{
	"S": {class: "S", outer: 4, inner: 10, shift: 12.0},
	"B": {class: "B", outer: 4, inner: 10, shift: 22.0},
}

// transposeTag is the point-to-point tag of the transpose exchange.
const transposeTag = 400

// App is the 2-D decomposed CG benchmark.
type App struct{}

func init() { apps.Register(App{}) }

// Name returns "CG2D".
func (App) Name() string { return "CG2D" }

// Classes returns the supported problem classes.
func (App) Classes() []string { return []string{"S", "B"} }

// DefaultClass returns "S".
func (App) DefaultClass() string { return "S" }

// MaxProcs returns the largest supported rank count.
func (App) MaxProcs(class string) int { return 64 }

// gridSide returns the process grid side for p ranks, or 0 if p is not a
// perfect square.
func gridSide(p int) int {
	s := int(math.Round(math.Sqrt(float64(p))))
	if s*s != p {
		return 0
	}
	return s
}

// blockCSR is one rank's matrix block — cg's cached arrays, read-only —
// whose column indices are global: column j is element j-colLo of the
// rank's vector segment.
type blockCSR struct {
	rows, colLo int
	rowPtr      []int
	colIdx      []int
	vals        []float64
}

// spmv computes w = A_block * x with instrumented arithmetic.
func (m *blockCSR) spmv(fc *fpe.Ctx, x, w []float64) {
	for i := 0; i < m.rows; i++ {
		var s float64
		for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
			s = fc.Add(s, fc.Mul(m.vals[k], x[m.colIdx[k]-m.colLo]))
		}
		w[i] = s
	}
}

// Run executes the benchmark on this rank.
func (a App) Run(fc *fpe.Ctx, comm *simmpi.Comm, class string) (apps.RankOutput, error) {
	pr, ok := classes[class]
	if !ok {
		return apps.RankOutput{}, &apps.ErrBadProcs{App: "CG2D", Class: class,
			Procs: comm.Size(), Reason: "unknown class"}
	}
	if err := apps.CheckProcs(a, class, comm.Size()); err != nil {
		return apps.RankOutput{}, err
	}
	side := gridSide(comm.Size())
	if side == 0 {
		return apps.RankOutput{}, &apps.ErrBadProcs{App: "CG2D", Class: class,
			Procs: comm.Size(), Max: 64, Reason: "rank count must be a perfect square (1, 4, 16, 64)"}
	}
	n, _ := cg.Order(pr.class)
	if n%side != 0 {
		return apps.RankOutput{}, &apps.ErrBadProcs{App: "CG2D", Class: class,
			Procs: comm.Size(), Max: 64, Reason: "grid side must divide the matrix order"}
	}
	b := n / side // block size
	row := comm.Rank() / side
	col := comm.Rank() % side
	rowComm := comm.Split(row, col)
	// The transpose partner holds the grid-mirrored block.
	partner := col*side + row

	rowPtr, colIdx, vals, _ := cg.BlockCSR(pr.class, row*b, (row+1)*b, col*b, (col+1)*b)
	m := &blockCSR{rows: b, colLo: col * b, rowPtr: rowPtr, colIdx: colIdx, vals: vals}

	// matvec computes the q segment this rank's column block contributes
	// to, reduced across the process row and transposed into the rank's
	// column segment.  Both live in arrays made once: the result is valid
	// until the next call.
	partial := make([]float64, b)
	qseg := partial
	if comm.Rank() != partner {
		qseg = make([]float64, b)
	}
	matvec := func(x []float64) []float64 {
		m.spmv(fc, x, partial)
		if comm.Size() > 1 {
			// The exchange-preparation guard models NPB CG's partial-sum
			// staging arithmetic (parallel-unique computation).
			end := fc.Begin("reduce-guard", fpe.Unique)
			var guard float64
			for _, v := range partial {
				guard = fc.Add(guard, v)
			}
			end()
			_ = guard
		}
		rowComm.AllreduceInto(simmpi.OpSum, partial)
		if comm.Rank() != partner {
			comm.Send(partner, transposeTag, partial)
			comm.RecvInto(partner, transposeTag, qseg)
		}
		return qseg
	}
	// dot computes a global inner product from this rank's segments: the
	// row communicator spans all column blocks exactly once.
	dot := func(x, y []float64) float64 {
		return rowComm.AllreduceValue(simmpi.OpSum, fc.Dot(x, y))
	}

	x := make([]float64, b)
	for i := range x {
		x[i] = 1
	}
	z := make([]float64, b)
	r := make([]float64, b)
	p := make([]float64, b)

	var zeta float64
	for it := 0; it < pr.outer; it++ {
		for i := range z {
			z[i] = 0
			r[i] = x[i]
			p[i] = r[i]
		}
		rho := dot(r, r)
		for cgit := 0; cgit < pr.inner; cgit++ {
			q := matvec(p)
			d := dot(p, q)
			alpha := fc.Div(rho, d)
			fc.Axpy(alpha, p, z)
			fc.Axpy(-alpha, q, r)
			rho0 := rho
			rho = dot(r, r)
			beta := fc.Div(rho, rho0)
			for i := range p {
				p[i] = fc.Add(r[i], fc.Mul(beta, p[i]))
			}
		}
		xz := dot(x, z)
		zeta = fc.Add(pr.shift, fc.Div(1, xz))
		zz := dot(z, z)
		inv := fc.Div(1, math.Sqrt(zz))
		for i := range x {
			x[i] = fc.Mul(z[i], inv)
		}
	}

	state := make([]float64, b)
	copy(state, x)
	return apps.RankOutput{State: state, Check: []float64{zeta}}, nil
}

// Verify implements the NPB CG checker on the eigenvalue estimate.
func (App) Verify(golden, check []float64) bool {
	return apps.VerifyRel(golden, check, 1e-10)
}
