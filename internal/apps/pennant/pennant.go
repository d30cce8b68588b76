// Package pennant implements resmod's analog of the PENNANT proxy
// application (LANL): staggered-grid compressible Lagrangian hydrodynamics
// with artificial viscosity, run on the "leblanc" shock-tube problem.
// PENNANT proper is 2-D unstructured; the resmod analog keeps its
// computational pattern — a predictor of zone pressures and viscosities, a
// nodal force/acceleration update, a zone thermodynamic update, and a
// globally reduced CFL time step — on a 1-D staggered mesh, which preserves
// the communication structure that matters for error propagation: halo
// exchange of boundary zones/nodes every cycle plus one allreduce(min) for
// dt that every subsequent computation depends on.
//
// PENNANT has no parallel-unique computation (paper Table 1): boundary
// values are sent directly from the working arrays.
package pennant

import (
	"math"

	"resmod/internal/apps"
	"resmod/internal/fpe"
	"resmod/internal/simmpi"
)

// params describes one problem (PENNANT input-deck analog).
type params struct {
	zones  int     // number of zones (cells)
	steps  int     // fixed cycle count
	gamma  float64 // ideal-gas ratio of specific heats
	cfl    float64
	q1     float64 // quadratic artificial viscosity coefficient
	xmax   float64 // domain [0, xmax]
	xif    float64 // interface position
	rhoL   float64 // left state density
	eL     float64 // left state specific internal energy
	rhoR   float64 // right state density
	eR     float64 // right state specific internal energy
	dtInit float64
	dtGrow float64 // max dt growth per cycle (PENNANT's dtfac)
}

var classes = map[string]params{
	// The leblanc extreme shock tube, PENNANT's hardest standard deck.
	"leblanc": {
		zones: 256, steps: 120, gamma: 5.0 / 3.0, cfl: 0.3, q1: 2.0,
		xmax: 9, xif: 3, rhoL: 1, eL: 0.1, rhoR: 1e-3, eR: 1e-7,
		dtInit: 1e-4, dtGrow: 1.1,
	},
	// The classic Sod shock tube (PENNANT's sodstr deck analog): a milder
	// 1:8 pressure ratio.
	"sod": {
		zones: 256, steps: 100, gamma: 1.4, cfl: 0.3, q1: 2.0,
		xmax: 1, xif: 0.5, rhoL: 1, eL: 2.5, rhoR: 0.125, eR: 2.0,
		dtInit: 1e-5, dtGrow: 1.1,
	},
}

// App is the PENNANT benchmark.
type App struct{}

func init() { apps.Register(App{}) }

// Name returns "PENNANT".
func (App) Name() string { return "PENNANT" }

// Classes returns the supported problem decks.
func (App) Classes() []string { return []string{"leblanc", "sod"} }

// DefaultClass returns "leblanc".
func (App) DefaultClass() string { return "leblanc" }

// MaxProcs returns the largest supported rank count (at least two zones
// per rank).
func (App) MaxProcs(class string) int {
	p, ok := classes[class]
	if !ok {
		return 0
	}
	return p.zones / 2
}

const (
	tagZoneRight = 300 // last zone state sent to the right neighbour
	tagNodeLeft  = 301 // first node state sent to the left neighbour
)

// zoneBlock is how many zones (or nodes) a cycle's kernels book by one
// window: a due injection sends one block down the per-op path.
const zoneBlock = 32

// Run executes the benchmark on this rank.
//
// Mesh ownership: rank r owns zones [zlo, zhi) and nodes [zlo, zhi); the
// global end node (index zones) is the right wall, handled by the last
// rank.  Each cycle exchanges the rank's last zone (P, m) rightward and its
// first node (u, x) leftward.
func (a App) Run(fc *fpe.Ctx, comm *simmpi.Comm, class string) (apps.RankOutput, error) {
	return a.RunSteps(fc, comm, class, nil)
}

// RunSteps is Run with a step boundary after every cycle.  A cycle
// recomputes the densities and pressures from the mesh, so the carry is the
// mesh (ghost node included), the energies and dt.
func (a App) RunSteps(fc *fpe.Ctx, comm *simmpi.Comm, class string, st *apps.Steps) (apps.RankOutput, error) {
	pr, ok := classes[class]
	if !ok {
		return apps.RankOutput{}, &apps.ErrBadProcs{App: "PENNANT", Class: class,
			Procs: comm.Size(), Reason: "unknown class"}
	}
	if err := apps.CheckProcs(a, class, comm.Size()); err != nil {
		return apps.RankOutput{}, err
	}
	rank, p := comm.Rank(), comm.Size()
	zlo, zhi := apps.Block1D(pr.zones, p, rank)
	nz := zhi - zlo

	// Initial mesh and states (setup, uninstrumented, scale-invariant).
	dx0 := pr.xmax / float64(pr.zones)
	x := st.Floats(nz + 1) // node positions zlo..zhi (local copy of zhi)
	u := st.Floats(nz + 1) // node velocities
	for i := 0; i <= nz; i++ {
		x[i] = float64(zlo+i) * dx0
	}
	rho := st.Floats(nz)
	e := st.Floats(nz)
	m := st.Floats(nz) // fixed Lagrangian zone masses
	for j := 0; j < nz; j++ {
		center := (float64(zlo+j) + 0.5) * dx0
		if center < pr.xif {
			rho[j], e[j] = pr.rhoL, pr.eL
		} else {
			rho[j], e[j] = pr.rhoR, pr.eR
		}
		m[j] = rho[j] * dx0
	}

	// exchangeNode refreshes the ghost node (u, x) at local index nz from
	// the right neighbour's first owned node.
	exchangeNode := func() {
		if rank > 0 {
			comm.Send(rank-1, tagNodeLeft, []float64{u[0], x[0]})
		}
		if rank < p-1 {
			var g [2]float64
			comm.RecvInto(rank+1, tagNodeLeft, g[:])
			u[nz], x[nz] = g[0], g[1]
		}
	}
	exchangeNode() // establish the initial ghost

	press := st.Floats(nz) // p + q per zone
	dt := pr.dtInit
	carry := &apps.Carry{Vecs: [][]float64{x, u, e}, Scalars: []*float64{&dt}}
	for step := st.Resume(carry); step < pr.steps; step++ {
		// --- zone pressures and artificial viscosity --------------------
		var dtLocal float64 = math.Inf(1)
		// At most 11 injectable ops per zone; the branches' are counted.
		for lo := 0; lo < nz; lo += zoneBlock {
			hi := min(lo+zoneBlock, nz)
			if zones := uint64(hi - lo); fc.Reserve(11 * zones) {
				var muls, divs uint64
				for j := lo; j < hi; j++ {
					dxj := x[j+1] - x[j]
					rho[j] = m[j] / dxj
					pj := float64(float64((pr.gamma-1)*rho[j]) * e[j])
					du := u[j+1] - u[j]
					var qj float64
					if du < 0 {
						qj = float64(float64(pr.q1*rho[j]) * float64(du*du))
						muls += 3
					}
					press[j] = pj + qj
					cs := math.Sqrt(float64(pr.gamma*pj) / rho[j])
					rate := cs + math.Abs(du)
					if rate > 0 {
						cand := float64(pr.cfl*dxj) / rate
						muls, divs = muls+1, divs+1
						if cand < dtLocal {
							dtLocal = cand
						}
					}
				}
				fc.Tally(2*zones, 2*zones, 3*zones+muls, 2*zones+divs)
				continue
			}
			for j := lo; j < hi; j++ {
				dxj := fc.Sub(x[j+1], x[j])
				rho[j] = fc.Div(m[j], dxj)
				pj := fc.Mul(fc.Mul(pr.gamma-1, rho[j]), e[j])
				du := fc.Sub(u[j+1], u[j])
				var qj float64
				if du < 0 { // compression: quadratic von Neumann-Richtmyer q
					qj = fc.Mul(fc.Mul(pr.q1, rho[j]), fc.Mul(du, du))
				}
				press[j] = fc.Add(pj, qj)
				cs := math.Sqrt(fc.Div(fc.Mul(pr.gamma, pj), rho[j]))
				rate := fc.Add(cs, math.Abs(du))
				if rate > 0 {
					cand := fc.Div(fc.Mul(pr.cfl, dxj), rate)
					if cand < dtLocal {
						dtLocal = cand
					}
				}
			}
		}
		// --- global time step -------------------------------------------
		grown := fc.Mul(dt, pr.dtGrow)
		if grown < dtLocal {
			dtLocal = grown
		}
		dt = comm.AllreduceValue(simmpi.OpMin, dtLocal)

		// --- nodal acceleration and motion -------------------------------
		// Needs the ghost zone (P, m) at zlo-1 from the left neighbour.
		var ghZoneP, ghZoneM float64
		if rank < p-1 {
			comm.Send(rank+1, tagZoneRight, []float64{press[nz-1], m[nz-1]})
		}
		if rank > 0 {
			var g [2]float64
			comm.RecvInto(rank-1, tagZoneRight, g[:])
			ghZoneP, ghZoneM = g[0], g[1]
		}
		// Every owned node but the left wall: 2 adds, a sub, 2 muls, a div.
		for lo := 0; lo < nz; lo += zoneBlock {
			hi := min(lo+zoneBlock, nz)
			nodes := uint64(hi - lo)
			if zlo+lo == 0 {
				nodes--
			}
			if fc.Reserve(5 * nodes) {
				for i := lo; i < hi; i++ {
					if zlo+i == 0 {
						u[0] = 0
						continue
					}
					pL, mL := ghZoneP, ghZoneM
					if i > 0 {
						pL, mL = press[i-1], m[i-1]
					}
					nodalMass := float64(0.5 * (mL + m[i]))
					u[i] += float64(dt * ((pL - press[i]) / nodalMass))
				}
				fc.Tally(2*nodes, nodes, 2*nodes, nodes)
				continue
			}
			for i := lo; i < hi; i++ {
				gi := zlo + i
				if gi == 0 {
					u[0] = 0 // left wall
					continue
				}
				var pL, mL float64
				if i == 0 {
					pL, mL = ghZoneP, ghZoneM
				} else {
					pL, mL = press[i-1], m[i-1]
				}
				nodalMass := fc.Mul(0.5, fc.Add(mL, m[i]))
				accel := fc.Div(fc.Sub(pL, press[i]), nodalMass)
				u[i] = fc.Add(u[i], fc.Mul(dt, accel))
			}
		}
		// Right wall: the last rank pins the global end node (which it
		// stores as its ghost slot) and moves it (a no-op for u=0).
		if rank == p-1 {
			u[nz] = 0
		}
		// Move the owned nodes; the last rank also moves the wall node.
		top := nz - 1
		if rank == p-1 {
			top = nz
		}
		fc.Axpy(dt, u[:top+1], x[:top+1])
		// Refresh the ghost node with the owner's post-motion state so this
		// cycle's zone update (and the next cycle's pressures) see it.
		exchangeNode()

		// --- zone thermodynamic update ------------------------------------
		for lo := 0; lo < nz; lo += zoneBlock {
			hi := min(lo+zoneBlock, nz)
			if zones := uint64(hi - lo); fc.Reserve(4 * zones) {
				for j := lo; j < hi; j++ {
					dvol := float64(dt * (u[j+1] - u[j]))
					e[j] -= float64(press[j]*dvol) / m[j]
					if e[j] < 1e-12 {
						e[j] = 1e-12
					}
				}
				fc.Tally(0, 2*zones, 2*zones, zones)
				continue
			}
			for j := lo; j < hi; j++ {
				dvol := fc.Mul(dt, fc.Sub(u[j+1], u[j])) // d(dx) = du*dt
				// de = -P dV / m (work done by total pressure).
				de := fc.Div(fc.Mul(press[j], dvol), m[j])
				e[j] = fc.Sub(e[j], de)
				if e[j] < 1e-12 {
					e[j] = 1e-12 // floor against viscosity overshoot
				}
			}
		}
		st.Mark(step+1, carry)
	}

	// Verification: total internal and kinetic energy (conserved up to
	// viscous transfer and wall work), reduced globally.  The nodal mass of
	// a rank's first node needs the left neighbour's last zone mass so the
	// energy accounting is identical at every scale.
	var ghMass float64
	if rank < p-1 {
		comm.SendValue(rank+1, tagZoneRight, m[nz-1])
	}
	if rank > 0 {
		ghMass = comm.RecvValue(rank-1, tagZoneRight)
	}
	var eint, ekin float64
	for j := 0; j < nz; j++ {
		eint = fc.Add(eint, fc.Mul(m[j], e[j]))
	}
	for i := 0; i < nz; i++ {
		gi := zlo + i
		var mn float64
		switch {
		case gi == 0:
			mn = m[0] // the wall node owns only its right zone's half... kept as m[0] since u=0 there anyway
		case i == 0:
			mn = fc.Mul(0.5, fc.Add(ghMass, m[0]))
		default:
			mn = fc.Mul(0.5, fc.Add(m[i-1], m[i]))
		}
		ekin = fc.Add(ekin, fc.Mul(fc.Mul(0.5, mn), fc.Mul(u[i], u[i])))
	}
	tot := comm.Allreduce(simmpi.OpSum, []float64{eint, ekin})

	state := st.Floats(3 * nz)
	copy(state, rho)
	copy(state[nz:], e)
	copy(state[2*nz:], u[:nz])
	return apps.RankOutput{State: state, Check: []float64{tot[0], tot[1]}}, nil
}

// Verify implements the PENNANT checker: the final energy accounting must
// match the fault-free run within tolerance.
func (App) Verify(golden, check []float64) bool {
	return apps.VerifyRel(golden, check, 1e-8)
}
