package exper

import (
	"fmt"
	"io"

	"resmod/internal/core"
	"resmod/internal/faultsim"
)

// Table2Row is one entry of the paper's Table 2: the cosine similarity of
// error propagation between a small-scale and the large-scale execution.
type Table2Row struct {
	Bench  string
	Class  string
	Small  int // small-scale rank count (4 or 8)
	Large  int // large-scale rank count (64)
	Cosine float64
}

// Table2 profiles error propagation (one error per test) at 4, 8 and 64
// ranks for the given benchmarks and reports the 4V64 and 8V64 cosine
// similarities.
func Table2(s *Session, names []string) ([]Table2Row, error) {
	list, err := resolveApps(names)
	if err != nil {
		return nil, err
	}
	var rows []Table2Row
	for _, a := range list {
		class := a.DefaultClass()
		large, err := s.Campaign(a, class, 64, 1, faultsim.AnyRegion)
		if err != nil {
			return nil, err
		}
		for _, small := range []int{4, 8} {
			sc, err := s.Campaign(a, class, small, 1, faultsim.AnyRegion)
			if err != nil {
				return nil, err
			}
			sim, err := core.PropagationSimilarity(sc.Hist, large.Hist)
			if err != nil {
				return nil, err
			}
			rows = append(rows, Table2Row{
				Bench: a.Name(), Class: class, Small: small, Large: 64, Cosine: sim,
			})
		}
	}
	return rows, nil
}

// RenderTable2 prints the rows in the paper's table format.
func RenderTable2(w io.Writer, rows []Table2Row) {
	fmt.Fprintf(w, "%-30s %s\n", "Benchmark", "Cosine similarity value")
	for _, r := range rows {
		fmt.Fprintf(w, "%-30s %.3f\n",
			fmt.Sprintf("%s (%s, %dV%d)", r.Bench, r.Class, r.Small, r.Large), r.Cosine)
	}
}

// MarkdownTable2 prints the rows beside the paper's similarities (keyed
// "Bench/Small").
func MarkdownTable2(w io.Writer, rows []Table2Row, paper map[string]float64) {
	fmt.Fprintf(w, "| benchmark | scales | paper | measured |\n|---|---|---|---|\n")
	for _, r := range rows {
		fmt.Fprintf(w, "| %s (%s) | %dV%d | %.3f | %.3f |\n",
			r.Bench, r.Class, r.Small, r.Large,
			paper[fmt.Sprintf("%s/%d", r.Bench, r.Small)], r.Cosine)
	}
	fmt.Fprintln(w)
}
