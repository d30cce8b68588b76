package exper

import (
	"fmt"
	"io"
)

// Overhead is the paper's §1 anecdote: how much one benchmark's executed
// operations grow from the serial to a parallel execution.
type Overhead struct {
	Bench       string
	Class       string
	Procs       int
	SerialOps   uint64
	ParallelOps uint64
}

// OpsGrowth is the growth in percent.
func (o *Overhead) OpsGrowth() float64 {
	return 100 * (float64(o.ParallelOps)/float64(o.SerialOps) - 1)
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
	}, nil
}

// RenderOverhead prints the comparison.
func RenderOverhead(w io.Writer, o *Overhead) {
	fmt.Fprintf(w, "serial ops:   %d\n", o.SerialOps)
	fmt.Fprintf(w, "%d-rank ops:   %d (%+.1f%%)\n", o.Procs, o.ParallelOps, o.OpsGrowth())
}

// MarkdownOverhead prints the paper-vs-measured table; paperOps is the
// paper's growth.
func MarkdownOverhead(w io.Writer, o *Overhead, paperOps string) {
	fmt.Fprintf(w, "| quantity | paper | measured |\n|---|---|---|\n")
	fmt.Fprintf(w, "| instruction growth | %s | %+.1f%% |\n\n", paperOps, o.OpsGrowth())
}
