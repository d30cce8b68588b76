package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
)

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// side is one side of a comparison: the result files of one commit.
type side struct {
	files []resultFile
}

func readSide(list string) (side, error) {
	var s side
	for _, path := range strings.Split(list, ",") {
		var rf resultFile
		if err := readJSON(path, &rf); err != nil {
			return s, err
		}
		if rf.Quick {
			return s, fmt.Errorf("%s is a -quick smoke result; its numbers mean nothing and are not compared", path)
		}
		s.files = append(s.files, rf)
	}
	return s, nil
}

// each calls fn on every run of one workload in the side's files.
func (s side) each(workload string, fn func(r *runResult)) {
	for _, f := range s.files {
		for _, r := range f.Runs {
			if r.Workload == workload {
				fn(r)
			}
		}
	}
}

// values gathers one metric of one (workload, mode) over the side's files.
func (s side) values(workload string, traced bool, metric string) []float64 {
	var out []float64
	s.each(workload, func(r *runResult) {
		if v, ok := r.Metrics[metric]; ok && r.Traced == traced {
			out = append(out, v)
		}
	})
	return out
}

// digests maps seed → result_digest for one workload's runs.
func (s side) digests(workload string) map[uint64]string {
	out := map[uint64]string{}
	s.each(workload, func(r *runResult) {
		if r.Digest != "" {
			out[r.Seed] = r.Digest
		}
	})
	return out
}

// exactCounts maps seed → value for one exact per-layer count.
func (s side) exactCounts(workload, metric string) map[uint64]float64 {
	out := map[uint64]float64{}
	s.each(workload, func(r *runResult) {
		if v, ok := r.Metrics[metric]; ok && r.Traced {
			out[r.Seed] = v
		}
	})
	return out
}

// verdict applies the no-regression rule to one end-to-end metric: the new
// side's median may be worse than the old side's by at most the bound.
// Where either side's own run-to-run spread (the distance between its
// quartiles, as a share of its median) is wider than the bound, the
// medians settle nothing: the metric is unresolved, unless every run of
// one side reads better than every run of the other.  A single run per
// side has no spread to show and is judged on its value alone.
func verdict(d metricDef, old, new []float64) (v string, ratio float64) {
	mo, mn := median(old), median(new)
	ratio = mn / mo
	worse := ratio - 1 // by how much the new median is worse, as a share of the old
	if d.better == "higher" {
		worse = 1 - ratio
	}
	spread := 0.0
	for _, vals := range [][]float64{old, new} {
		if q1, q3 := quartiles(vals); len(vals) > 1 && median(vals) != 0 {
			spread = max(spread, (q3-q1)/median(vals))
		}
	}
	if spread > d.bound {
		lo, hi := percentile(new, 0), percentile(new, 1)
		oldLo, oldHi := percentile(old, 0), percentile(old, 1)
		if d.better == "higher" {
			lo, hi, oldLo, oldHi = -hi, -lo, -oldHi, -oldLo
		}
		switch {
		case hi < oldLo:
			return "better", ratio
		case lo > oldHi:
			return "worse", ratio
		}
		return "unresolved", ratio
	}
	switch {
	case worse > d.bound:
		return "worse", ratio
	case worse < -d.bound:
		return "better", ratio
	}
	return "same", ratio
}

// compareMain prints a benchstat-style table of OLD against NEW and
// returns non-zero when any end-to-end metric is worse, or when a digest
// or an exact count differs between runs of one seed.
func compareMain(args []string, w io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: benchmark -compare OLD.json[,OLD2.json…] NEW.json[,NEW2.json…]")
		return 2
	}
	old, err := readSide(args[0])
	if err == nil {
		var new side
		if new, err = readSide(args[1]); err == nil {
			return compareSides(old, new, w)
		}
	}
	fmt.Fprintln(stderr, "benchmark:", err)
	return 2
}

func compareSides(old, new side, w io.Writer) int {
	code := 0
	fmt.Fprintf(w, "%-14s %-16s %14s %14s %8s %6s  %s\n", "workload", "metric", "old (base)", "new", "new/old", "bound", "verdict")
	for _, wl := range workloads {
		for _, d := range endToEndMetrics {
			o, n := old.values(wl.name, false, d.name), new.values(wl.name, false, d.name)
			if len(o) == 0 || len(n) == 0 {
				continue
			}
			v, ratio := verdict(d, o, n)
			if v == "worse" {
				code = 1
			}
			fmt.Fprintf(w, "%-14s %-16s %14.6g %14.6g %8.3f %6.2f  %s", wl.name, d.name, median(o), median(n), ratio, d.bound, v)
			if len(o) > 1 || len(n) > 1 {
				oq1, oq3 := quartiles(o)
				nq1, nq3 := quartiles(n)
				fmt.Fprintf(w, "  (n=%d [%.4g, %.4g] vs n=%d [%.4g, %.4g])", len(o), oq1, oq3, len(n), nq1, nq3)
			}
			fmt.Fprintln(w)
		}
		od, nd := old.digests(wl.name), new.digests(wl.name)
		for seed, dig := range nd {
			if was, ok := od[seed]; ok && was != dig {
				fmt.Fprintf(w, "%-14s result_digest differs at seed %d: %s → %s\n", wl.name, seed, was, dig)
				code = 1
			}
		}
		for _, d := range perLayerMetrics {
			if !d.exact {
				continue
			}
			oc, nc := old.exactCounts(wl.name, d.name), new.exactCounts(wl.name, d.name)
			for seed, val := range nc {
				if was, ok := oc[seed]; ok && was != val {
					fmt.Fprintf(w, "%-14s %s differs at seed %d: %g → %g\n", wl.name, d.name, seed, was, val)
					code = 1
				}
			}
		}
	}
	return code
}
