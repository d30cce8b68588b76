package exper

import (
	"fmt"
	"io"

	"resmod/internal/analysis"
)

// Params are the per-invocation inputs a plan row may read: the CLI's
// -apps subset (nil = the paper's six) and the -app/-class/-small/-large
// of the parametrised rows.
type Params struct {
	Apps  []string
	App   string
	Class string
	Small int
	Large int
}

// Experiment is one row of the evaluation plan.
type Experiment struct {
	// Name is the CLI name: `resmod <Name>`.
	Name string
	// Title heads the console rendering as "== Title =="; a row whose
	// rendering names its own configuration leaves it empty.
	Title string
	// Paper marks the paper's own tables and figures: `resmod all` runs
	// exactly these, in order.
	Paper bool
	// Heading is the row's section heading in `resmod report`; a row
	// without one is not part of the report.  Consecutive rows sharing a
	// heading share the section.
	Heading string
	// Run executes the experiment and returns its result value — what
	// -json encodes.
	Run func(s *Session, p Params) (any, error)
	// Render prints Run's value for the console.
	Render func(w io.Writer, v any)
	// Markdown prints Run's value for the report; nil fences Render's
	// output instead.
	Markdown func(w io.Writer, v any)
	// Note closes the report section: the paper's claim to read the
	// numbers against.
	Note string
}

// Print writes v the way the console shows it.
func (e Experiment) Print(w io.Writer, v any) {
	if e.Title != "" {
		fmt.Fprintf(w, "== %s ==\n", e.Title)
	}
	e.Render(w, v)
}

// Lookup finds a plan row by its CLI name.
func Lookup(name string) (Experiment, bool) {
	for _, e := range Plan {
		if e.Name == name {
			return e, true
		}
	}
	return Experiment{}, false
}

// render adapts a typed renderer to a row's field.
func render[T any](f func(io.Writer, T)) func(io.Writer, any) {
	return func(w io.Writer, v any) { f(w, v.(T)) }
}

// The paper's own numbers, for the report's side-by-side columns.
var (
	paperTable1 = map[string]string{
		"CG/S": "1.6%", "CG/B": "0.27%",
		"FT/S": "10.4%", "FT/B": "17.7%",
		"MG/S": "none", "LU/W": "none",
		"MiniFE/30": "1.54%", "MiniFE/300": "0.68%",
		"PENNANT/leblanc": "none",
	}
	paperTable2 = map[string]float64{
		"CG/4": 0.122, "CG/8": 0.999,
		"FT/4": 0.905, "FT/8": 0.999,
		"MG/4": 0.999, "MG/8": 1.000,
		"LU/4": 0.638, "LU/8": 1.000,
		"MiniFE/4": 0.981, "MiniFE/8": 1.000,
		"PENNANT/4": 0.979, "PENNANT/8": 0.999,
	}
)

// Plan is the evaluation, declared once: the paper's §1 anecdote, tables
// and figures in the paper's order, then one custom prediction and the
// studies beyond the paper.  `resmod <name>`, `all`, `report`, -json and
// the usage text are views of this slice; an experiment's parameters and
// the paper's reference numbers live in its row and nowhere else.
var Plan = []Experiment{
	{
		Name: "overhead", Paper: true,
		Title:   "§1 anecdote: CG instruction growth, serial -> 4 ranks",
		Heading: "§1 anecdote: CG growth from serial to 4 ranks",
		Run: func(s *Session, _ Params) (any, error) {
			return MeasureOverhead(s, "CG", "S", 4)
		},
		Render: render(RenderOverhead),
		Markdown: render(func(w io.Writer, o *Overhead) {
			MarkdownOverhead(w, o, "+74.5%", "+15%")
		}),
	},
	{
		Name: "table1", Paper: true,
		Title:   "Table 1: percentage of parallel-unique computation (4 ranks)",
		Heading: "Table 1: percentage of parallel-unique computation",
		Run:     func(s *Session, _ Params) (any, error) { return Table1(s) },
		Render:  render(RenderTable1),
		Markdown: render(func(w io.Writer, rows []Table1Row) {
			MarkdownTable1(w, rows, paperTable1)
		}),
	},
	{
		Name: "table2", Paper: true,
		Title:   "Table 2: propagation cosine similarity",
		Heading: "Table 2: propagation cosine similarity (small vs 64 ranks)",
		Run:     func(s *Session, p Params) (any, error) { return Table2(s, p.Apps) },
		Render:  render(RenderTable2),
		Markdown: render(func(w io.Writer, rows []Table2Row) {
			MarkdownTable2(w, rows, paperTable2)
		}),
	},
	{
		Name: "fig1", Paper: true,
		Title:   "Figure 1: CG propagation profiles",
		Heading: "Figures 1–2: propagation histograms (8 vs 64 ranks)",
		Run:     func(s *Session, _ Params) (any, error) { return Propagation(s, "CG", 8, 64) },
		Render:  render(RenderPropagation),
	},
	{
		Name: "fig2", Paper: true,
		Title:   "Figure 2: FT propagation profiles",
		Heading: "Figures 1–2: propagation histograms (8 vs 64 ranks)",
		Run:     func(s *Session, _ Params) (any, error) { return Propagation(s, "FT", 8, 64) },
		Render:  render(RenderPropagation),
		Note: "Paper shape: mass concentrated at 1 contaminated rank and at\n" +
			"all-ranks, with the small profile matching the grouped large one.",
	},
	{
		Name: "fig3", Paper: true,
		Title:   "Figure 3: serial x errors vs parallel x contaminated (8 ranks)",
		Heading: "Figure 3: serial x errors vs parallel x contaminated (8 ranks)",
		Run:     func(s *Session, p Params) (any, error) { return Fig3All(s, p.Apps, 8) },
		Render: render(func(w io.Writer, panels []*Fig3Result) {
			for _, r := range panels {
				RenderFig3(w, r)
			}
		}),
	},
	{
		Name: "fig5", Paper: true,
		Title:   "Figure 5: modeling accuracy",
		Heading: "Figure 5: prediction for 64 ranks (serial + 4 ranks)",
		Run:     func(s *Session, p Params) (any, error) { return PredictAll(s, p.Apps, 4, 64) },
		Render:  render(RenderPredictions),
		Markdown: render(func(w io.Writer, rows []PredictionRow) {
			MarkdownPredictions(w, rows, "8% avg, 27% max")
		}),
	},
	{
		Name: "fig6", Paper: true,
		Title:   "Figure 6: modeling accuracy",
		Heading: "Figure 6: prediction for 64 ranks (serial + 8 ranks)",
		Run:     func(s *Session, p Params) (any, error) { return PredictAll(s, p.Apps, 8, 64) },
		Render:  render(RenderPredictions),
		Markdown: render(func(w io.Writer, rows []PredictionRow) {
			MarkdownPredictions(w, rows, "7% avg, 19% max")
		}),
	},
	{
		Name: "fig7", Paper: true,
		Title:   "Figure 7: modeling accuracy for 128 ranks (CG, FT)",
		Heading: "Figure 7: prediction for 128 ranks (CG, FT)",
		// FT's class S transpose supports up to 64 ranks; class B covers
		// 128 (see DESIGN.md).
		Run: func(s *Session, _ Params) (any, error) {
			return PredictEach(s, 128, []PredictConfig{
				{"CG", "S", 4}, {"CG", "S", 8},
				{"FT", "B", 4}, {"FT", "B", 8},
			})
		},
		Render: render(RenderPredictions),
		Markdown: render(func(w io.Writer, rows []PredictionRow) {
			MarkdownScales(w, rows, "error <= 7% with serial+4, <= 6% with serial+8")
		}),
	},
	{
		Name: "fig8", Paper: true,
		Title:   "Figure 8: accuracy vs fault-injection time",
		Heading: "Figure 8: accuracy vs fault-injection time (target 64 ranks)",
		// nil small sizes: Fig8's default is the paper's sweep.
		Run:      func(s *Session, p Params) (any, error) { return Fig8(s, p.Apps, nil, 64) },
		Render:   render(RenderFig8),
		Markdown: render(MarkdownFig8),
		Note: "Paper shape: RMSE falls and time rises as the small scale grows,\n" +
			"with 16 ranks called the balance point.",
	},
	{
		Name: "predict",
		Run: func(s *Session, p Params) (any, error) {
			return PredictOne(s, p.App, p.Class, p.Small, p.Large)
		},
		Render: render(func(w io.Writer, r *PredictionRow) {
			RenderPredictions(w, []PredictionRow{*r})
		}),
	},
	{
		Name:    "baselines",
		Title:   "model vs naive baselines",
		Heading: "Model vs naive baselines",
		Run: func(s *Session, p Params) (any, error) {
			return Baselines(s, p.Apps, p.Small, p.Large)
		},
		Render: render(RenderBaselines),
	},
	{
		Name:    "modelablate",
		Heading: "Model ingredient ablation",
		Run: func(s *Session, p Params) (any, error) {
			return AblateModel(s, p.App, p.Class, p.Small, p.Large)
		},
		Render: render(RenderModelAblation),
	},
	{
		Name:    "scalesweep",
		Title:   "extrapolation-depth sweep",
		Heading: "Extrapolation depth",
		Run: func(s *Session, p Params) (any, error) {
			var larges []int
			for l := p.Small * 2; l <= p.Large; l *= 2 {
				larges = append(larges, l)
			}
			return ScaleSweep(s, p.App, p.Class, p.Small, larges)
		},
		Render: render(RenderScaleSweep),
	},
	{
		Name:    "ablate",
		Heading: "Sensitivity ablations",
		Run: func(s *Session, p Params) (any, error) {
			cfg, err := analysisConfig(s, p)
			if err != nil {
				return nil, err
			}
			return analysis.AllSweeps(cfg)
		},
		Render: render(func(w io.Writer, v *analysis.Sweeps) { v.Render(w) }),
	},
	{
		Name: "trace",
		Run: func(s *Session, p Params) (any, error) {
			return TraceTrials(s, p.App, p.Class, p.Small)
		},
		Render: render(RenderTrace),
	},
}

// analysisConfig is the session's trial budget and seed applied to the
// -app/-class/-small configuration: what the sensitivity rows measure.
func analysisConfig(s *Session, p Params) (analysis.Config, error) {
	list, err := resolveApps([]string{p.App})
	if err != nil {
		return analysis.Config{}, err
	}
	cfg := s.Config()
	return analysis.Config{
		App: list[0], Class: p.Class, Procs: p.Small, Trials: cfg.Trials,
		Seed: cfg.Seed, Workers: cfg.Workers,
	}, nil
}
