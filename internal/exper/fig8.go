package exper

import (
	"fmt"
	"io"
	"time"
)

// Fig8Point is one x-axis point of the paper's Figure 8: the model's
// accuracy (RMSE over all benchmarks) and the fault injection cost of the
// small-scale deployment, as the small-scale size grows.
type Fig8Point struct {
	Small int
	// RMSE is Eq. 9 over the benchmarks' success rates.
	RMSE float64
	// AvgSmallTime is the mean wall time of the small-scale deployments.
	AvgSmallTime time.Duration
	// AvgSerialTime is the mean wall time of one serial deployment, the
	// normalization baseline of the paper's right axis.
	AvgSerialTime time.Duration
	Rows          []PredictionRow
}

// NormalizedTime returns the small-scale fault injection time normalized
// by the serial fault injection time (the paper's Figure 8 right axis).
func (p Fig8Point) NormalizedTime() float64 {
	if p.AvgSerialTime <= 0 {
		return 0
	}
	return float64(p.AvgSmallTime) / float64(p.AvgSerialTime)
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
			pt.AvgSmallTime += r.SmallTime
			pt.AvgSerialTime += r.SerialTime
		}
		pt.AvgSmallTime /= time.Duration(len(rows))
		pt.AvgSerialTime /= time.Duration(len(rows))
		points = append(points, pt)
	}
	return points, nil
}

// RenderFig8 prints the sweep.
func RenderFig8(w io.Writer, points []Fig8Point) {
	fmt.Fprintf(w, "accuracy vs fault-injection cost (prediction target: %d ranks)\n",
		points[0].Rows[0].Large)
	fmt.Fprintf(w, "  %-8s %-10s %-14s %s\n", "small", "RMSE", "time/serial", "avg campaign time")
	for _, p := range points {
		fmt.Fprintf(w, "  %-8d %-10.4f %-14.2f %v\n",
			p.Small, p.RMSE, p.NormalizedTime(), p.AvgSmallTime.Round(time.Millisecond))
	}
}

// MarkdownFig8 prints the sweep as a table.
func MarkdownFig8(w io.Writer, points []Fig8Point) {
	fmt.Fprintf(w, "| small scale | RMSE | campaign time / serial | avg campaign time |\n")
	fmt.Fprintf(w, "|---|---|---|---|\n")
	for _, p := range points {
		fmt.Fprintf(w, "| %d | %.4f | %.2fx | %v |\n",
			p.Small, p.RMSE, p.NormalizedTime(), p.AvgSmallTime.Round(time.Millisecond))
	}
	fmt.Fprintln(w)
}
