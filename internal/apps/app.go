// Package apps defines the benchmark application interface of resmod and
// shared numerical helpers.  The six applications the paper evaluates —
// NPB CG, FT, MG and LU, plus the MiniFE and PENNANT proxy apps — live in
// subpackages and register themselves here.
//
// Every application obeys the paper's assumptions on "common HPC
// applications" (§2): serial and parallel executions of a given problem
// class run the same numerical algorithm on the same input (strong
// scaling), and all ranks perform the same computation.  Applications
// route every floating-point operation through the per-rank *fpe.Ctx so
// the harness can inject single-bit faults, and annotate parallel-unique
// computation (paper Observation 1) with fpe regions.  A hot kernel does
// so by the window, a plane, a batch of lines or a block of rows (or
// zones) at a time: when fpe.Ctx.Reserve grants the window's ops it runs
// them as plain arithmetic and books them with one Tally, and otherwise it
// runs the window's instrumented loop — the same operations in the same
// order either way (see package fpe), so a due injection costs one plane,
// one line or one block on the per-op path.  Both loops are straight: a
// stencil chooses the planes and rows it reads once per plane and per row
// (Layer, Row), so that only a row's two ends are tested inside it, and
// past a domain edge it reads a plane of zeros that every run shares and
// none may write.
//
// Three conventions keep a run from allocating at all — a campaign is
// thousands of runs, and what a run allocates it pays for again in the
// collector.  A run's working arrays come from the rank's working set
// (Steps.Floats), which the rank's Arena keeps from one execution of a
// shape to the next, and not from a make: the arrays, and the State a run
// returns, are the arena's until its next execution.  Kernels take their
// destination: a function called from an iteration loop (a stencil, a
// sweep, a transpose, a halo exchange) writes into arrays its caller drew
// before the loop and passes in, receives with RecvInto or an ...Into
// collective, and sends straight from the working array (Send copies).
// Hoisting must leave the order and the number of fpe operations exactly
// as they were: an injection plan addresses an operation by its index.
// (A drawn array is live for the whole run and kept between runs, so it
// should be drawn only on the ranks that use it: MG's coarse levels, which
// only rank 0 works on, are whole on rank 0 alone — see mg.Run.)
// And fault-free setup that depends only on the class (a generated matrix,
// a twiddle table, evolution factors, a right-hand side) is computed once
// per process and shared by every run of every campaign, so it is
// read-only: a run that wrote to it would silently change every later
// run's answer.
//
// The six paper apps also keep the step contract (Stepped): their run is a
// loop of steps, and they name the state a step carries to the next
// (Carry) and mark the boundaries between steps.  A trial then starts every
// rank at the last boundary before its first injection, restoring that
// state and the fpe counters, instead of re-running the prefix it shares
// with the golden run (see faultsim's prefix table).  An app without it
// runs from the start every time.
package apps

import (
	"fmt"
	"math"

	"resmod/internal/fpe"
	"resmod/internal/simmpi"
)

// RankOutput is what one rank produces at the end of a run.
type RankOutput struct {
	// State is the rank's final local state vector.  The harness compares
	// it bit-for-bit against the golden run's to decide whether this rank
	// was contaminated (paper §3.2).
	State []float64
	// Check holds the application's verification values (residual norms,
	// checksums, ...).  Only rank 0's Check is meaningful; it feeds the
	// application "checker" that separates Success from SDC (paper §2).
	Check []float64
}

// App is one benchmark application.
type App interface {
	// Name returns the benchmark's short name ("CG", "FT", ...).
	Name() string
	// Classes returns the supported problem classes, smallest first.
	Classes() []string
	// DefaultClass returns the class used when none is specified.
	DefaultClass() string
	// MaxProcs returns the largest rank count the class's decomposition
	// supports.  Valid rank counts are the powers of two up to it.
	MaxProcs(class string) int
	// Run executes the rank's share of the computation.  comm.Size()==1 is
	// the serial execution.  All floating point math must flow through fc.
	Run(fc *fpe.Ctx, comm *simmpi.Comm, class string) (RankOutput, error)
	// Verify implements the application checker: it reports whether the
	// verification values of a (possibly faulty) run are acceptable
	// relative to the fault-free golden values.
	Verify(golden, check []float64) bool
}

// ErrBadProcs reports an unsupported rank count for a class.
type ErrBadProcs struct {
	App    string
	Class  string
	Procs  int
	Max    int
	Reason string
}

func (e *ErrBadProcs) Error() string {
	return fmt.Sprintf("apps: %s class %s cannot run on %d ranks (max %d): %s",
		e.App, e.Class, e.Procs, e.Max, e.Reason)
}

// CheckProcs validates that procs is a power of two between 1 and
// app.MaxProcs(class).
func CheckProcs(app App, class string, procs int) error {
	max := app.MaxProcs(class)
	if procs < 1 || procs > max {
		return &ErrBadProcs{App: app.Name(), Class: class, Procs: procs, Max: max,
			Reason: "out of range"}
	}
	if procs&(procs-1) != 0 {
		return &ErrBadProcs{App: app.Name(), Class: class, Procs: procs, Max: max,
			Reason: "not a power of two"}
	}
	return nil
}

// Block1D returns the [lo, hi) row range of rank r in an equal 1-D block
// decomposition of n items over p ranks.  It panics if n is not divisible
// by p — applications size their grids so every supported rank count
// divides them (strong scaling with identical per-rank computation).
func Block1D(n, p, r int) (lo, hi int) {
	if p <= 0 || n%p != 0 {
		panic(fmt.Sprintf("apps: Block1D: n=%d not divisible by p=%d", n, p))
	}
	sz := n / p
	return r * sz, (r + 1) * sz
}

// RelErr returns |got-want| / max(|want|, floor): a relative error that
// degrades gracefully to absolute near zero.
func RelErr(want, got, floor float64) float64 {
	d := math.Abs(got - want)
	m := math.Abs(want)
	if m < floor {
		m = floor
	}
	return d / m
}

// AllFinite reports whether every value is neither NaN nor Inf.
func AllFinite(xs []float64) bool {
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

// VerifyRel is the common checker shape: every check value must be finite
// and within relative tolerance tol of the golden value.
func VerifyRel(golden, check []float64, tol float64) bool {
	if len(golden) != len(check) {
		return false
	}
	if !AllFinite(check) {
		return false
	}
	for i := range golden {
		if RelErr(golden[i], check[i], 1e-30) > tol {
			return false
		}
	}
	return true
}

// zeros is what a stencil reads past a domain edge: a plane as large as the
// largest any app's class has (LU's and MG's class A, 16 x 16).  Every rank
// of every run shares it, so it is read-only.
var zeros [16 * 16]float64

// Layer returns the k-th run of n floats of a: a plane of a slab of planes,
// or a row of a plane.  Past a's ends, k = -1 is lo and k = len(a)/n is hi —
// the ghost planes of a slab's neighbours, the rows a periodic plane wraps
// to — and a nil one, a domain edge, reads as zeros.  A stencil chooses the
// layers it reads once per plane and per row, so that only a row's two ends
// need a test inside it; a layer past an edge it must only read.
func Layer(a []float64, n, k int, lo, hi []float64) []float64 {
	switch {
	case k < 0:
		a, k = lo, 0
	case k*n >= len(a):
		a, k = hi, 0
	}
	if a == nil {
		a = zeros[:]
	}
	return a[k*n : (k+1)*n : (k+1)*n]
}

// Row returns row y of plane p, of rows of nx points, and zeros past the
// plane's edges (y = -1 or ny).
func Row(p []float64, nx, y int) []float64 { return Layer(p, nx, y, nil, nil) }

// Beside returns the values before and after x in row, zero past its ends.
func Beside(row []float64, x int) (before, after float64) {
	if x > 0 {
		before = row[x-1]
	}
	if x+1 < len(row) {
		after = row[x+1]
	}
	return before, after
}

// HaloExchange1D exchanges boundary planes with the ring neighbours in a
// 1-D decomposition: sendLo goes to rank-1, sendHi to rank+1; the plane
// from rank-1 is received into ghostLo and the one from rank+1 into
// ghostHi, which must have the planes' length.  It returns the two ghosts,
// nil in place of the one beyond a domain end.
// Tags must be below the collective tag space.
func HaloExchange1D(comm *simmpi.Comm, tag int, sendLo, sendHi, ghostLo, ghostHi []float64) (lo, hi []float64) {
	r, p := comm.Rank(), comm.Size()
	// Send both directions first (buffered), then receive: deadlock-free.
	if r > 0 {
		comm.Send(r-1, tag, sendLo)
	}
	if r < p-1 {
		comm.Send(r+1, tag+1, sendHi)
	}
	if r > 0 {
		comm.RecvInto(r-1, tag+1, ghostLo)
		lo = ghostLo
	}
	if r < p-1 {
		comm.RecvInto(r+1, tag, ghostHi)
		hi = ghostHi
	}
	return lo, hi
}
