// customapp shows how to study the resilience of your own application with
// resmod: implement the resmod.App interface (routing floating-point math
// through the instrumented context and communicating through the simulated
// MPI runtime), register it, and run the same campaigns and scale
// predictions the built-in NPB benchmarks use.
//
// The application here is a 1-D explicit heat-diffusion solver with halo
// exchange and a global energy reduction — a miniature of the stencil codes
// the paper targets.
//
//	go run ./examples/customapp
package main

import (
	"fmt"
	"log"
	"os"

	"resmod"
)

// heatApp solves du/dt = k d2u/dx2 with fixed time steps on [0, 1],
// Dirichlet zero boundaries, and a hot bump in the middle.
type heatApp struct{}

func (heatApp) Name() string         { return "Heat1D" }
func (heatApp) Classes() []string    { return []string{"default"} }
func (heatApp) DefaultClass() string { return "default" }
func (heatApp) MaxProcs(string) int  { return 64 }

// Verify accepts runs whose final energy and mid-point temperature match
// the fault-free values to 1e-9 relative.
func (heatApp) Verify(golden, check []float64) bool {
	return resmod.VerifyRel(golden, check, 1e-9)
}

const (
	cells = 512
	steps = 200
	kappa = 0.2 // stable for the explicit scheme (k <= 0.5)
)

// Run ignores its *resmod.Steps: the solver allocates its own arrays and
// marks no step boundaries, so every trial runs it from the start.
func (heatApp) Run(fc *resmod.FPCtx, comm *resmod.Comm, class string, _ *resmod.Steps) (resmod.RankOutput, error) {
	p, rank := comm.Size(), comm.Rank()
	if cells%p != 0 {
		return resmod.RankOutput{}, fmt.Errorf("heat1d: %d ranks do not divide %d cells", p, cells)
	}
	n := cells / p
	lo := rank * n

	u := make([]float64, n)
	for i := range u {
		x := (float64(lo+i) + 0.5) / cells
		if x > 0.4 && x < 0.6 {
			u[i] = 1 // the initial hot bump
		}
	}

	next := make([]float64, n)
	for step := 0; step < steps; step++ {
		// Halo exchange: first cell leftward, last cell rightward.
		var ghLo, ghHi float64 // Dirichlet zero outside the domain
		if rank > 0 {
			comm.SendValue(rank-1, 1, u[0])
		}
		if rank < p-1 {
			comm.SendValue(rank+1, 2, u[n-1])
		}
		if rank > 0 {
			ghLo = comm.RecvValue(rank-1, 2)
		}
		if rank < p-1 {
			ghHi = comm.RecvValue(rank+1, 1)
		}
		// Explicit update through the instrumented FP context, so faults
		// can strike any operand of any dynamic operation.
		for i := 0; i < n; i++ {
			left, right := ghLo, ghHi
			if i > 0 {
				left = u[i-1]
			}
			if i < n-1 {
				right = u[i+1]
			}
			lap := fc.Sub(fc.Add(left, right), fc.Mul(2, u[i]))
			next[i] = fc.Add(u[i], fc.Mul(kappa, lap))
		}
		u, next = next, u
	}

	// Verification values: total energy (a conserved-ish global) and the
	// domain-centre temperature.
	var local float64
	for _, v := range u {
		local = fc.Add(local, v)
	}
	energy := comm.AllreduceValue(resmod.OpSum, local)
	var mid float64
	if lo <= cells/2 && cells/2 < lo+n {
		mid = u[cells/2-lo]
	}
	mid = comm.AllreduceValue(resmod.OpSum, mid)

	state := make([]float64, n)
	copy(state, u)
	return resmod.RankOutput{State: state, Check: []float64{energy, mid}}, nil
}

func main() {
	resmod.RegisterApp(heatApp{})

	// A small-scale campaign...
	summary, err := resmod.RunCampaign(resmod.Campaign{
		App: heatApp{}, Procs: 4, Trials: 300, Seed: 3,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Heat1D, 4 ranks:", summary.Rates)
	fmt.Println("propagation profile:", summary.Hist.Probabilities())

	// ...and a full scale prediction: 32 ranks from serial + 4 ranks.
	session := resmod.NewSession(resmod.SessionConfig{Trials: 200, Seed: 3, Log: os.Stderr})
	row, err := resmod.PredictScale(session, "Heat1D", "", 4, 32)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("predicted success at 32 ranks: %.1f%% (measured %.1f%%, error %.1f%%)\n",
		100*row.Predicted.Success, 100*row.Measured.Success, 100*row.Error)
}
