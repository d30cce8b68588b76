package exper

import (
	"fmt"
	"io"
)

// Fig8Point is one x-axis point of the paper's Figure 8: the model's
// accuracy (RMSE over all benchmarks) and the fault injection cost of the
// small-scale deployment, as the small-scale size grows.
type Fig8Point struct {
	Small int
	// RMSE is Eq. 9 over the benchmarks' success rates.
	RMSE float64
	// SmallOps and SerialOps are the golden runs' injectable operations
	// at the small scale and at one rank, summed over the benchmarks.
	// Every deployment runs the same number of trials, so their ratio is
	// the paper's right axis: fault injection cost normalized by serial.
	SmallOps  uint64
	SerialOps uint64
	Rows      []PredictionRow
}

// NormalizedCost returns the small-scale fault injection cost normalized
// by the serial fault injection cost (the paper's Figure 8 right axis).
func (p Fig8Point) NormalizedCost() float64 {
	if p.SerialOps == 0 {
		return 0
	}
	return float64(p.SmallOps) / float64(p.SerialOps)
}

// Fig8 sweeps the small-scale size over smalls (the paper uses 4, 8, 16,
// 32) predicting the large scale for every named benchmark.
func Fig8(s *Session, names []string, smalls []int, large int) ([]Fig8Point, error) {
	if len(smalls) == 0 {
		smalls = []int{4, 8, 16, 32}
	}
	points := make([]Fig8Point, 0, len(smalls))
	for _, small := range smalls {
		rows, err := PredictAll(s, names, small, large)
		if err != nil {
			return nil, err
		}
		pt := Fig8Point{Small: small, RMSE: RMSEOf(rows), Rows: rows}
		for _, r := range rows {
			// The predictions ran on these goldens: the session has them.
			o, err := MeasureOverhead(s, r.Bench, r.Class, small)
			if err != nil {
				return nil, err
			}
			pt.SmallOps += o.ParallelOps
			pt.SerialOps += o.SerialOps
		}
		points = append(points, pt)
	}
	return points, nil
}

// RenderFig8 prints the sweep.
func RenderFig8(w io.Writer, points []Fig8Point) {
	fmt.Fprintf(w, "accuracy vs fault-injection cost (prediction target: %d ranks)\n",
		points[0].Rows[0].Large)
	fmt.Fprintf(w, "  %-8s %-10s %s\n", "small", "RMSE", "cost/serial")
	for _, p := range points {
		fmt.Fprintf(w, "  %-8d %-10.4f %.3f\n", p.Small, p.RMSE, p.NormalizedCost())
	}
}

// MarkdownFig8 prints the sweep as a table.
func MarkdownFig8(w io.Writer, points []Fig8Point) {
	fmt.Fprintf(w, "| small scale | RMSE | campaign cost / serial |\n")
	fmt.Fprintf(w, "|---|---|---|\n")
	for _, p := range points {
		fmt.Fprintf(w, "| %d | %.4f | %.3fx |\n", p.Small, p.RMSE, p.NormalizedCost())
	}
	fmt.Fprintln(w)
}
