package pennant

import (
	"math"
	"testing"

	"resmod/internal/apps"
	"resmod/internal/apps/apptest"
	"resmod/internal/fpe"
)

func TestConformance(t *testing.T) {
	apptest.Conformance(t, App{}, apptest.Options{
		Procs:      []int{2, 4, 8},
		WantUnique: false,
	})
}

func TestShockDevelops(t *testing.T) {
	res := apps.Execute(App{}, "leblanc", 1, nil, apps.DefaultTimeout)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	pr := classes["leblanc"]
	state := res.Outputs[0].State
	rho := state[:pr.zones]
	e := state[pr.zones : 2*pr.zones]
	u := state[2*pr.zones:]
	if !apps.AllFinite(state) {
		t.Fatal("state contains NaN/Inf")
	}
	// The rarefaction must have lowered the density somewhere on the left.
	minRhoLeft := math.Inf(1)
	for j := 0; j < pr.zones/3; j++ {
		if rho[j] < minRhoLeft {
			minRhoLeft = rho[j]
		}
	}
	if minRhoLeft >= pr.rhoL {
		t.Fatalf("no rarefaction: min left density %g", minRhoLeft)
	}
	// Material must be moving rightward somewhere (the shock/contact).
	maxU := 0.0
	for _, v := range u {
		if v > maxU {
			maxU = v
		}
	}
	if maxU <= 0.01 {
		t.Fatalf("no rightward motion: max u = %g", maxU)
	}
	// Energies positive everywhere.
	for j, ej := range e {
		if ej <= 0 {
			t.Fatalf("zone %d has non-positive energy %g", j, ej)
		}
	}
}

func TestEnergyAccountingSane(t *testing.T) {
	// Total energy (internal + kinetic) must stay within a factor of the
	// initial internal energy (the scheme adds viscous dissipation but no
	// spurious energy source).
	res := apps.Execute(App{}, "leblanc", 1, nil, apps.DefaultTimeout)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	pr := classes["leblanc"]
	dx0 := pr.xmax / float64(pr.zones)
	var e0 float64
	for j := 0; j < pr.zones; j++ {
		center := (float64(j) + 0.5) * dx0
		if center < pr.xif {
			e0 += pr.rhoL * dx0 * pr.eL
		} else {
			e0 += pr.rhoR * dx0 * pr.eR
		}
	}
	eint, ekin := res.Outputs[0].Check[0], res.Outputs[0].Check[1]
	tot := eint + ekin
	if tot <= 0 || tot > 1.2*e0 || tot < 0.5*e0 {
		t.Fatalf("total energy %g vs initial %g: accounting broken", tot, e0)
	}
	if ekin <= 0 {
		t.Fatalf("kinetic energy %g: nothing moved", ekin)
	}
}

func TestSerialParallelBitIdenticalState(t *testing.T) {
	// The min-reduction for dt is exact and per-point updates use the same
	// inputs in the same order, so parallel state reassembles to the serial
	// state bit-for-bit.
	ser := apps.Execute(App{}, "leblanc", 1, nil, apps.DefaultTimeout)
	if ser.Err != nil {
		t.Fatal(ser.Err)
	}
	const p = 4
	par := apps.Execute(App{}, "leblanc", p, nil, apps.DefaultTimeout)
	if par.Err != nil {
		t.Fatal(par.Err)
	}
	pr := classes["leblanc"]
	nzLoc := pr.zones / p
	// Reassemble each field from the per-rank layouts.
	for r := 0; r < p; r++ {
		st := par.Outputs[r].State
		for j := 0; j < nzLoc; j++ {
			gj := r*nzLoc + j
			if math.Float64bits(st[j]) != math.Float64bits(ser.Outputs[0].State[gj]) {
				t.Fatalf("rho differs at zone %d (rank %d)", gj, r)
			}
			if math.Float64bits(st[nzLoc+j]) != math.Float64bits(ser.Outputs[0].State[pr.zones+gj]) {
				t.Fatalf("e differs at zone %d (rank %d)", gj, r)
			}
			if math.Float64bits(st[2*nzLoc+j]) != math.Float64bits(ser.Outputs[0].State[2*pr.zones+gj]) {
				t.Fatalf("u differs at node %d (rank %d)", gj, r)
			}
		}
	}
}

func TestInjectionIntoDtPropagatesEverywhere(t *testing.T) {
	// dt is a global value: corrupting computation that feeds it (early,
	// catastrophically) must corrupt the checker values.
	clean := apps.Execute(App{}, "leblanc", 1, nil, apps.DefaultTimeout)
	if clean.Err != nil {
		t.Fatal(clean.Err)
	}
	total := clean.Ctxs[0].Counts().Common
	caught := false
	for _, frac := range []uint64{1, 2, 3} {
		bad := apps.Execute(App{}, "leblanc", 1, map[int][]fpe.Injection{
			0: {{Class: fpe.Common, Index: total * frac / 8, Bit: 62, Operand: 0}},
		}, apps.DefaultTimeout)
		if bad.Err != nil || !(App{}).Verify(clean.Outputs[0].Check, bad.Outputs[0].Check) {
			caught = true
			break
		}
	}
	if !caught {
		t.Fatal("no early exponent corruption caught")
	}
}

func TestConformanceSod(t *testing.T) {
	if testing.Short() {
		t.Skip("extra deck skipped in -short mode")
	}
	apptest.Conformance(t, App{}, apptest.Options{
		Class:      "sod",
		Procs:      []int{4},
		WantUnique: false,
	})
}

// TestPooledRunAllocBounded pins a steady-state run's allocation at 1.25 x
// what it measured when the pins were set.  With the working set drawn from
// the arena, only a few small objects are left (the run's closure, its
// Check, the energy reduction), so a make put back into the run fails it.
func TestPooledRunAllocBounded(t *testing.T) {
	apptest.AllocBounded(t, App{}, map[int]apptest.Alloc{
		1:  {Bytes: 140, Objects: 4},
		4:  {Bytes: 260, Objects: 12},
		16: {Bytes: 740, Objects: 42},
		64: {Bytes: 2660, Objects: 162},
	})
}

func TestOpCountNearSerial(t *testing.T) { apptest.OpCountNearSerial(t, App{}, "") }
