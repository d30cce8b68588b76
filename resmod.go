package resmod

import (
	"context"

	"resmod/internal/apps"
	"resmod/internal/core"
	"resmod/internal/exper"
	"resmod/internal/faultsim"
	"resmod/internal/fpe"
	"resmod/internal/simmpi"
	"resmod/internal/stats"

	// Register the paper's six benchmarks.
	_ "resmod/internal/apps/cg"
	_ "resmod/internal/apps/ft"
	_ "resmod/internal/apps/lu"
	_ "resmod/internal/apps/mg"
	_ "resmod/internal/apps/minife"
	_ "resmod/internal/apps/pennant"
)

// ---- applications ---------------------------------------------------------

// App is a benchmark application: the unit fault injection campaigns run
// against.  Implement it (and RegisterApp it) to study your own code; its
// Run may ignore the *Steps it is handed.
type App = apps.App

// Steps is a rank's view of its execution, handed to App.Run: the working
// set it may draw its arrays from (Floats) and the step boundaries a
// looping app may mark so trials resume past the prefix they share with
// the golden run (Resume, Mark).
type Steps = apps.Steps

// RankOutput is an application rank's final state and verification values.
type RankOutput = apps.RankOutput

// LookupApp returns a registered application ("CG", "FT", "MG", "LU",
// "MiniFE", "PENNANT", or any RegisterApp-ed name).
func LookupApp(name string) (App, error) { return apps.Lookup(name) }

// AppNames lists the registered application names.
func AppNames() []string { return apps.Names() }

// RegisterApp adds a user application to the registry.
func RegisterApp(a App) { apps.Register(a) }

// VerifyRel is the common checker shape: finite values within a relative
// tolerance of the golden values.
func VerifyRel(golden, check []float64, tol float64) bool {
	return apps.VerifyRel(golden, check, tol)
}

// ---- fault injection substrate ---------------------------------------------

// FPCtx is the instrumented floating-point context applications compute
// through; one per rank.
type FPCtx = fpe.Ctx

// Injection is one planned single-bit flip.
type Injection = fpe.Injection

// Region classes for computation annotation (paper Observation 1).
const (
	RegionCommon = fpe.Common
	RegionUnique = fpe.Unique
)

// FlipBit returns f with one bit of its IEEE-754 representation inverted.
func FlipBit(f float64, bit uint) float64 { return fpe.FlipBit(f, bit) }

// ---- message-passing substrate ----------------------------------------------

// Comm is a rank's communicator handle in the simulated MPI runtime.
type Comm = simmpi.Comm

// Reduction operators.
const (
	OpSum  = simmpi.OpSum
	OpMax  = simmpi.OpMax
	OpMin  = simmpi.OpMin
	OpProd = simmpi.OpProd
)

// ---- campaigns ---------------------------------------------------------------

// Campaign is one fault injection deployment (paper §2).
type Campaign = faultsim.Campaign

// Summary is a deployment's fault injection result.
type Summary = faultsim.Summary

// Golden is a fault-free reference execution.
type Golden = faultsim.Golden

// Rates is a fault injection result: Success/SDC/Failure fractions.
type Rates = stats.Rates

// Hist is a contamination histogram over ranks.
type Hist = stats.Hist

// Region modes for campaigns.
const (
	AnyRegion  = faultsim.AnyRegion
	CommonOnly = faultsim.CommonOnly
	UniqueOnly = faultsim.UniqueOnly
)

// Outcomes of individual tests.
const (
	Success = faultsim.Success
	SDC     = faultsim.SDC
	Failure = faultsim.Failure
)

// RunCampaign executes a fault injection deployment.
func RunCampaign(c Campaign) (*Summary, error) { return faultsim.Run(c) }

// RunCampaignCtx executes a deployment under a context: cancellation (or
// an exhausted Campaign.Budget) stops the trial workers promptly and
// returns the partial Summary flagged Interrupted.  With
// Campaign.Checkpoint set, the partial tallies are persisted and a later
// run with Campaign.Resume continues bit-identically.
func RunCampaignCtx(ctx context.Context, c Campaign) (*Summary, error) {
	return faultsim.RunCtx(ctx, c)
}

// CampaignCheckpoint is the resumable snapshot of a partially executed
// deployment (see Campaign.Checkpoint / Campaign.Resume).
type CampaignCheckpoint = faultsim.Checkpoint

// LoadCampaignCheckpoint reads a snapshot written by a checkpointing
// campaign — for inspecting partial progress out of band.
func LoadCampaignCheckpoint(path string) (*CampaignCheckpoint, error) {
	return faultsim.LoadCheckpoint(path)
}

// ComputeGolden runs the fault-free execution of (app, class, procs).
func ComputeGolden(app App, class string, procs int) (*Golden, error) {
	return faultsim.ComputeGolden(app, class, procs, apps.DefaultTimeout)
}

// ---- the model -----------------------------------------------------------------

// ModelInputs gathers the model's inputs (paper §4.2).
type ModelInputs = core.Inputs

// Prediction is the model's output.
type Prediction = core.Prediction

// SerialCurve holds sampled serial multi-error fault injection results.
type SerialCurve = core.SerialCurve

// Predict evaluates the paper's model (Eqs. 1–8).
func Predict(in ModelInputs) (*Prediction, error) { return core.Predict(in) }

// SampleXs returns the serial sampling points for target scale p with s
// samples (paper §4.2: 1, 2p/s, ..., p).
func SampleXs(p, s int) ([]int, error) { return core.SampleXs(p, s) }

// NewSerialCurve builds a validated serial curve.
func NewSerialCurve(p int, xs []int, rates []Rates) (*SerialCurve, error) {
	return core.NewSerialCurve(p, xs, rates)
}

// PropagationSimilarity is the paper's Table 2 cosine metric between a
// small-scale and a grouped large-scale contamination histogram.
func PropagationSimilarity(small, large *Hist) (float64, error) {
	return core.PropagationSimilarity(small, large)
}

// ---- evaluation drivers ----------------------------------------------------------

// Session caches golden runs and deployments across experiments.
type Session = exper.Session

// SessionConfig tunes an evaluation session.
type SessionConfig = exper.Config

// NewSession creates an evaluation session.
func NewSession(cfg SessionConfig) *Session { return exper.NewSession(cfg) }

// PredictionRow is a measured-vs-predicted row (Figures 5–7).
type PredictionRow = exper.PredictionRow

// PredictScale runs the full §4 pipeline for one benchmark: serial sampled
// deployments plus a small-scale deployment predict the fault injection
// result at the large scale, compared against the measured ground truth.
func PredictScale(s *Session, app, class string, small, large int) (*PredictionRow, error) {
	return exper.PredictOne(s, app, class, small, large)
}
