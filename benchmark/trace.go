package main

import (
	"os"
	"path/filepath"
	"sort"
	"time"

	"resmod/internal/telemetry"
)

// selfTimes attributes the wall time of every root span to the spans under
// it and sums the shares by span name.  At each instant inside a root's
// interval the time belongs to the spans of that tree that are running
// with no child of their own running; where several are (campaigns of one
// prediction running side by side) the instant is split evenly between
// them.  Without concurrency this is the usual self time — a span's
// duration minus the union of its children's intervals — and in every
// case the shares of a tree add up to its root's duration exactly, so the
// table accounts for all recorded time once.  Children are clipped to
// their parent's interval.  It returns the per-name sums and the summed
// duration of the roots.
func selfTimes(spans []telemetry.SpanView) (byName map[string]time.Duration, roots time.Duration) {
	type node struct {
		view       telemetry.SpanView
		start, end time.Duration
		parent     *node
		running    int // children currently running
		self       float64
	}
	nodes := make(map[uint64]*node, len(spans))
	for _, v := range spans {
		nodes[v.ID] = &node{view: v, start: v.Start, end: v.Start + v.Duration}
	}
	// Parents start no later than their children, so walking in start
	// order clips each child against an already-clipped parent.
	order := make([]*node, 0, len(nodes))
	for _, n := range nodes {
		order = append(order, n)
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].start != order[j].start {
			return order[i].start < order[j].start
		}
		return order[i].view.ID < order[j].view.ID
	})
	trees := map[*node][]*node{}
	rootOf := map[*node]*node{}
	for _, n := range order {
		n.parent = nodes[n.view.Parent] // nil for a root or an unrecorded parent
		if n.parent == nil || rootOf[n.parent] == nil {
			n.parent = nil
			rootOf[n] = n
			roots += n.end - n.start
		} else {
			n.start = max(n.start, n.parent.start)
			n.end = max(n.start, min(n.end, n.parent.end))
			rootOf[n] = rootOf[n.parent]
		}
		trees[rootOf[n]] = append(trees[rootOf[n]], n)
	}

	type event struct {
		at    time.Duration
		begin bool
		n     *node
	}
	byName = map[string]time.Duration{}
	for _, tree := range trees {
		events := make([]event, 0, 2*len(tree))
		depth := map[*node]int{}
		for _, n := range tree { // start order: a parent's depth is known
			if n.parent != nil {
				depth[n] = depth[n.parent] + 1
			}
			events = append(events, event{n.start, true, n}, event{n.end, false, n})
		}
		// At one instant: ends before begins, children end before their
		// parents, parents begin before their children.
		sort.SliceStable(events, func(i, j int) bool {
			a, b := events[i], events[j]
			switch {
			case a.at != b.at:
				return a.at < b.at
			case a.begin != b.begin:
				return !a.begin
			case a.begin:
				return depth[a.n] < depth[b.n]
			default:
				return depth[a.n] > depth[b.n]
			}
		})
		leaves := map[*node]bool{} // running spans with no running child
		last := time.Duration(0)
		for _, e := range events {
			if dt := e.at - last; dt > 0 && len(leaves) > 0 {
				share := float64(dt) / float64(len(leaves))
				for n := range leaves {
					n.self += share
				}
			}
			last = e.at
			if e.begin {
				leaves[e.n] = true
				if p := e.n.parent; p != nil {
					p.running++
					delete(leaves, p)
				}
			} else {
				delete(leaves, e.n)
				if p := e.n.parent; p != nil {
					if p.running--; p.running == 0 && p.end > e.at {
						leaves[p] = true
					}
				}
			}
		}
		for _, n := range tree {
			byName[n.view.Name] += time.Duration(n.self)
		}
	}
	return byName, roots
}

// tracedSpanNames are the rows of the self-time table: the program's span
// names and the benchmark's own two boundary spans.
var tracedSpanNames = []string{"job", "predict", "golden", "campaign", "trial-batch",
	"checkpoint", "distribute", "dispatch", "shard", "bench_call", "bench_http"}

// traceMetrics fills the trace.* rows from the traced passes' spans.
func traceMetrics(tel *benchTel, m map[string]float64) {
	spans := tel.tracer.Spans()
	byName, roots := selfTimes(spans)
	var listed time.Duration
	for _, name := range tracedSpanNames {
		m["trace."+name+"_self_s"] = byName[name].Seconds()
		listed += byName[name]
	}
	// A span name this table does not list would otherwise vanish from
	// the account.
	m["trace.other_self_s"] = (sumDurations(byName) - listed).Seconds()
	m["trace.roots_s"] = roots.Seconds()
	m["telemetry.spans_recorded"] = float64(len(spans))
}

func sumDurations(m map[string]time.Duration) (sum time.Duration) {
	for _, d := range m {
		sum += d
	}
	return sum
}

// writeTrace saves the traced passes as Chrome trace-event JSON.
func writeTrace(rc runConfig, tel *benchTel) error {
	f, err := os.Create(filepath.Join(rc.outDir, rc.workload+".trace.json"))
	if err != nil {
		return err
	}
	if err := tel.tracer.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
