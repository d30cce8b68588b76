// Package resmod is a library for modeling application resilience in
// large-scale parallel execution.  It reproduces the methodology of
// Wu, Dong, Guan, DeBardeleben and Li, "Modeling Application Resilience in
// Large-scale Parallel Execution", ICPP 2018: instead of running expensive
// fault-injection campaigns at large scale, resmod injects single-bit
// floating-point faults into serial and small-scale executions and predicts
// the large-scale fault injection result from them.
//
// The package is a facade over the implementation packages:
//
//   - the instrumented floating-point fault injector (internal/fpe), an
//     F-SEFI analog that flips one bit of an input operand of a randomly
//     selected dynamic floating-point instruction;
//   - an in-process deterministic message-passing runtime (internal/simmpi)
//     standing in for MPI, with ranks as goroutines;
//   - the benchmark applications (internal/apps/...): the paper's six —
//     NPB CG, FT, MG and LU plus the MiniFE and PENNANT proxy apps —
//     rebuilt at laptop scale with their original communication
//     structure (RegisterApp adds your own);
//   - the fault-injection campaign machinery (internal/faultsim);
//   - the paper's prediction model (internal/core); and
//   - the evaluation drivers regenerating every table and figure
//     (internal/exper).
//
// # Quick start
//
//	app, _ := resmod.LookupApp("CG")
//	small, _ := resmod.RunCampaign(resmod.Campaign{
//		App: app, Procs: 8, Trials: 1000, Seed: 1,
//	})
//	fmt.Println("small-scale result:", small.Rates)
//
// See examples/ for complete programs and cmd/resmod for the experiment
// command-line interface.
package resmod
