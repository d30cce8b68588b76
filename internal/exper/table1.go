package exper

import (
	"fmt"
	"io"
)

// Table1Row is one benchmark/class entry of the paper's Table 1.
type Table1Row struct {
	Bench          string
	Class          string
	UniqueFraction float64 // dynamic-op fraction of parallel-unique computation
	HasUnique      bool
}

// Table1 measures the percentage of parallel-unique computation of every
// benchmark at four ranks (the configuration of the paper's Table 1),
// using the dynamic injectable-operation fraction as the proxy for
// execution time (see DESIGN.md §2 for the substitution rationale).
func Table1(s *Session) ([]Table1Row, error) {
	// The paper reports both input sizes for CG, FT and MiniFE.
	configs := []struct{ app, class string }{
		{"CG", "S"}, {"CG", "B"},
		{"FT", "S"}, {"FT", "B"},
		{"MG", "S"},
		{"LU", "W"},
		{"MiniFE", "30"}, {"MiniFE", "300"},
		{"PENNANT", "leblanc"},
	}
	rows := make([]Table1Row, 0, len(configs))
	for _, c := range configs {
		a, err := resolveApps([]string{c.app})
		if err != nil {
			return nil, err
		}
		g, err := s.Golden(a[0], c.class, 4)
		if err != nil {
			return nil, err
		}
		f := g.UniqueFraction()
		rows = append(rows, Table1Row{
			Bench: c.app, Class: c.class,
			UniqueFraction: f, HasUnique: f > 0,
		})
	}
	return rows, nil
}

// RenderTable1 prints the rows in the paper's table format.
func RenderTable1(w io.Writer, rows []Table1Row) {
	fmt.Fprintf(w, "%-22s %s\n", "Benchmark", "Parallel-unique computation")
	for _, r := range rows {
		val := "No parallel-unique comp"
		if r.HasUnique {
			val = fmt.Sprintf("%.2f%%", 100*r.UniqueFraction)
		}
		fmt.Fprintf(w, "%-22s %s\n", r.Bench+" ("+r.Class+")", val)
	}
}

// MarkdownTable1 prints the rows beside the paper's values (keyed
// "Bench/Class").
func MarkdownTable1(w io.Writer, rows []Table1Row, paper map[string]string) {
	fmt.Fprintf(w, "| benchmark | paper | measured |\n|---|---|---|\n")
	for _, r := range rows {
		meas := "none"
		if r.HasUnique {
			meas = fmt.Sprintf("%.2f%%", 100*r.UniqueFraction)
		}
		fmt.Fprintf(w, "| %s (%s) | %s | %s |\n", r.Bench, r.Class,
			paper[r.Bench+"/"+r.Class], meas)
	}
	fmt.Fprintln(w)
}
