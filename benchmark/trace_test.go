package main

import (
	"testing"
	"time"

	"resmod/internal/telemetry"
)

func span(id, parent uint64, name string, startMS, durMS int) telemetry.SpanView {
	return telemetry.SpanView{ID: id, Parent: parent, Name: name,
		Start: time.Duration(startMS) * time.Millisecond, Duration: time.Duration(durMS) * time.Millisecond}
}

func checkSelf(t *testing.T, spans []telemetry.SpanView, want map[string]int, wantRootsMS int) {
	t.Helper()
	got, roots := selfTimes(spans)
	if roots != time.Duration(wantRootsMS)*time.Millisecond {
		t.Errorf("roots = %v, want %dms", roots, wantRootsMS)
	}
	var sum time.Duration
	for name, d := range got {
		sum += d
		if w := time.Duration(want[name]) * time.Millisecond; (d - w).Abs() > time.Microsecond {
			t.Errorf("self[%s] = %v, want %v", name, d, w)
		}
	}
	for name := range want {
		if _, ok := got[name]; !ok {
			t.Errorf("self[%s] missing", name)
		}
	}
	if (sum - roots).Abs() > time.Microsecond {
		t.Errorf("self times sum to %v, roots to %v: time was dropped or counted twice", sum, roots)
	}
}

func TestSelfTimeNested(t *testing.T) {
	// root 0–100; child 10–60 with grandchild 20–30; child 70–90.
	checkSelf(t, []telemetry.SpanView{
		span(1, 0, "root", 0, 100),
		span(2, 1, "child", 10, 50),
		span(3, 2, "leaf", 20, 10),
		span(4, 1, "child", 70, 20),
	}, map[string]int{"root": 30, "child": 60, "leaf": 10}, 100)
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	// Two children overlap on 40–60: the parent's self time is its
	// duration minus the union of their intervals (0–20 and 80–100), and
	// the overlapped 20ms is split between the two, not counted twice.
	checkSelf(t, []telemetry.SpanView{
		span(1, 0, "root", 0, 100),
		span(2, 1, "a", 20, 40),
		span(3, 1, "b", 40, 40),
	}, map[string]int{"root": 40, "a": 30, "b": 30}, 100)
}

func TestSelfTimeClipsAndSeparatesRoots(t *testing.T) {
	// A child outliving its parent is clipped to it; a span whose parent
	// was never recorded is a root of its own; two roots are independent
	// even where they overlap in time.
	checkSelf(t, []telemetry.SpanView{
		span(1, 0, "root", 0, 50),
		span(2, 1, "late", 40, 30),
		span(7, 99, "orphan", 10, 20),
	}, map[string]int{"root": 40, "late": 10, "orphan": 20}, 70)
}
