package fpe

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"resmod/internal/stats"
)

// adds runs n instrumented adds.
func adds(c *Ctx, n int) {
	for i := 0; i < n; i++ {
		c.Add(1, 2)
	}
}

// TestWindowEdges: a window is granted exactly when the trigger lies beyond
// it, and the op that takes the slow path is the one per-op counting sends.
func TestWindowEdges(t *testing.T) {
	plan := []Injection{{Class: Common, Index: 9, Bit: 1}}
	c := NewWithPlan(plan)
	adds(c, 2)
	if c.Reserve(8) {
		t.Fatal("a window whose last op is the trigger was granted")
	}
	if !c.Reserve(7) {
		t.Fatal("a window ending just before the trigger was refused")
	}
	c.Tally(3, 2, 2, 5)
	if c.Fired() != 0 {
		t.Fatal("a window fired")
	}
	if got := c.Add(1, 2); got != 1+FlipBit(2, 1) && got != FlipBit(1, 1)+2 {
		t.Fatalf("op 9 after the window = %g, not the injected sum", got)
	}
	if c.Fired() != 1 || c.Records()[0].Op != OpAdd {
		t.Fatalf("the instrumented op after the window did not fire: %+v", c.Records())
	}
	if !c.Reserve(math.MaxUint64 / 2) {
		t.Fatal("the post-fire tail was refused")
	}
	c.Tally(1, 0, 0, 0)
	if got := (Counts{Common: 2 + 7 + 1 + 1}); c.Counts() != got || c.Divs() != 5 {
		t.Fatalf("counts %+v divs %d, want %+v divs 5", c.Counts(), c.Divs(), got)
	}
}

// TestWindowClasses: a trigger in the other class refuses nothing.
func TestWindowClasses(t *testing.T) {
	c := NewWithPlan([]Injection{{Class: Unique, Index: 0, Bit: 1}})
	if !c.Reserve(100) {
		t.Fatal("a Unique trigger refused a Common window")
	}
	c.Tally(0, 0, 100, 0)
	end := c.Begin("u", Unique)
	if c.Reserve(1) {
		t.Fatal("a window over the Unique trigger was granted")
	}
	c.Add(1, 2)
	end()
}

// TestWindowOverdrawPanics: a Tally above what was reserved — or with no
// reservation at all — panics.
func TestWindowOverdrawPanics(t *testing.T) {
	for _, tc := range []struct {
		reserve uint64
		tally   [3]uint64
	}{{4, [3]uint64{2, 2, 1}}, {0, [3]uint64{1, 0, 0}}} {
		func() {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(r.(string), "exceeds the ops") {
					t.Fatalf("Tally %v over Reserve(%d) = %v, want a panic", tc.tally, tc.reserve, r)
				}
			}()
			c := New()
			if tc.reserve > 0 && !c.Reserve(tc.reserve) {
				t.Fatal("refused a window on a clean context")
			}
			c.Tally(tc.tally[0], tc.tally[1], tc.tally[2], 0)
		}()
	}
}

// TestWindowCountsMatchPerOp drives one random script through a context
// that takes every window it can and one that takes none: values, counts,
// regions, divisions and records must agree.
func TestWindowCountsMatchPerOp(t *testing.T) {
	script := func(c *Ctx, seed uint64) []float64 {
		rng := stats.NewRNG(seed)
		x := []float64{1, 2, 3, 4, 5, 6, 7}
		y := []float64{7, 6, 5, 4, 3, 2, 1}
		out := []float64{}
		for i := 0; i < 60; i++ {
			switch rng.Intn(8) {
			case 0:
				out = append(out, c.Dot(x, y))
			case 1:
				c.Axpy(0.5, x, y)
			case 2:
				c.Aypx(0.25, y, x)
			case 3:
				out = append(out, c.Div(c.Sub(x[0], y[0]), 3))
			case 4:
				end := c.Begin("u", Unique)
				c.Axpy(-0.5, y, x)
				end()
			case 5:
				c.AddVec(x, x, y)
			case 6:
				c.SubVec(y, x, y)
			default:
				if c.Reserve(3) { // a hand-made window: a mul, an add, a div
					x[1] = y[1] + float64(x[1]*0.5)/3
					c.Tally(1, 0, 1, 1)
				} else {
					x[1] = c.Add(y[1], c.Div(c.Mul(x[1], 0.5), 3))
				}
			}
		}
		return append(append(out, x...), y...)
	}
	for trial := 0; trial < 100; trial++ {
		rng := stats.NewRNG(uint64(trial))
		plan := []Injection{
			{Class: Common, Index: uint64(rng.Intn(600)), Bit: uint(rng.Intn(64))},
			{Class: Unique, Index: uint64(rng.Intn(100)), Bit: uint(rng.Intn(64)), Operand: 1},
		}
		windowed, perOp := NewWithPlan(plan), NewWithPlan(plan)
		got := script(windowed, uint64(trial))
		windowsOff = true
		want := script(perOp, uint64(trial))
		windowsOff = false
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("trial %d: value %d is %g with windows, %g without", trial, i, got[i], want[i])
			}
		}
		if windowed.KindCounts() != perOp.KindCounts() || windowed.Divs() != perOp.Divs() ||
			!reflect.DeepEqual(windowed.RegionCounts(), perOp.RegionCounts()) ||
			!recordsEqual(windowed.Records(), perOp.Records()) {
			t.Fatalf("trial %d: windowed %+v %d %v %+v, per-op %+v %d %v %+v", trial,
				windowed.KindCounts(), windowed.Divs(), windowed.RegionCounts(), windowed.Records(),
				perOp.KindCounts(), perOp.Divs(), perOp.RegionCounts(), perOp.Records())
		}
		if windowed.Tallied() == 0 || perOp.Tallied() != 0 {
			t.Fatalf("trial %d: windows booked %d ops, the per-op run %d", trial, windowed.Tallied(), perOp.Tallied())
		}
	}
}
