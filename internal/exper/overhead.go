package exper

import (
	"fmt"
	"io"
	"time"
)

// Overhead is the paper's §1 anecdote: how much one benchmark's executed
// operations and fault-free time grow from the serial to a parallel
// execution.
type Overhead struct {
	Bench        string
	Class        string
	Procs        int
	SerialOps    uint64
	ParallelOps  uint64
	SerialTime   time.Duration
	ParallelTime time.Duration
}

// OpsGrowth and TimeGrowth are the growths in percent.
func (o *Overhead) OpsGrowth() float64 {
	return 100 * (float64(o.ParallelOps)/float64(o.SerialOps) - 1)
}

func (o *Overhead) TimeGrowth() float64 {
	return 100 * (float64(o.ParallelTime)/float64(o.SerialTime) - 1)
}

// MeasureOverhead compares the golden runs at one rank and at procs.
func MeasureOverhead(s *Session, name, class string, procs int) (*Overhead, error) {
	list, err := resolveApps([]string{name})
	if err != nil {
		return nil, err
	}
	ser, err := s.Golden(list[0], class, 1)
	if err != nil {
		return nil, err
	}
	par, err := s.Golden(list[0], class, procs)
	if err != nil {
		return nil, err
	}
	return &Overhead{
		Bench: list[0].Name(), Class: class, Procs: procs,
		SerialOps: ser.TotalCounts().Total(), ParallelOps: par.TotalCounts().Total(),
		SerialTime: ser.Elapsed, ParallelTime: par.Elapsed,
	}, nil
}

// RenderOverhead prints the comparison.
func RenderOverhead(w io.Writer, o *Overhead) {
	fmt.Fprintf(w, "serial ops:   %d\n", o.SerialOps)
	fmt.Fprintf(w, "%d-rank ops:   %d (+%.1f%%)\n", o.Procs, o.ParallelOps, o.OpsGrowth())
	fmt.Fprintf(w, "serial time:  %v\n", o.SerialTime.Round(time.Microsecond))
	fmt.Fprintf(w, "%d-rank time:  %v (+%.1f%%)\n", o.Procs,
		o.ParallelTime.Round(time.Microsecond), o.TimeGrowth())
}

// MarkdownOverhead prints the paper-vs-measured table; paperOps and
// paperTime are the paper's two growths.
func MarkdownOverhead(w io.Writer, o *Overhead, paperOps, paperTime string) {
	fmt.Fprintf(w, "| quantity | paper | measured |\n|---|---|---|\n")
	fmt.Fprintf(w, "| instruction growth | %s | +%.1f%% |\n", paperOps, o.OpsGrowth())
	fmt.Fprintf(w, "| fault-free time growth | %s | +%.1f%% |\n\n", paperTime, o.TimeGrowth())
}
