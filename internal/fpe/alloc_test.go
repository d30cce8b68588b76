package fpe

import (
	"testing"

	"resmod/internal/race"
)

// opSequence drives a fixed mixed workload through the datapath.
func opSequence(c *Ctx, n int) float64 {
	s := 1.0
	for i := 0; i < n; i++ {
		s = c.Add(s, 1.25)
		s = c.Mul(s, 0.5)
		s = c.Sub(s, 0.125)
	}
	return s
}

// TestCleanDatapathAllocFree pins the fast path's allocation behavior:
// a reused context executing a region-free clean run allocates nothing,
// and RegionCounts of a region-free run returns without allocating.
func TestCleanDatapathAllocFree(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not exact under -race")
	}
	c := New()
	if n := testing.AllocsPerRun(100, func() {
		c.Reset()
		opSequence(c, 50)
		if c.Counts().Total() != 150 {
			t.Fatal("datapath miscounted")
		}
		if len(c.RegionCounts()) != 0 {
			t.Fatal("unexpected regions")
		}
	}); n != 0 {
		t.Fatalf("clean reused datapath allocates %v allocs/run, want 0", n)
	}
}

// TestResetPlanAllocFree pins the pooled armed path: reloading a
// same-shaped plan into a reused context and firing it allocates
// nothing in steady state.
func TestResetPlanAllocFree(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not exact under -race")
	}
	c := New()
	plan := []Injection{{Class: Common, Index: 10, Bit: 3}}
	// Warm the capacity (group slot, record storage) once.
	c.ResetPlan(plan)
	opSequence(c, 20)
	if n := testing.AllocsPerRun(100, func() {
		c.ResetPlan(plan)
		opSequence(c, 20)
		if c.Fired() != 1 {
			t.Fatal("plan did not fire")
		}
	}); n != 0 {
		t.Fatalf("pooled armed datapath allocates %v allocs/run, want 0", n)
	}
}

// TestRegionDatapathAllocFree pins the class switch: once the region
// stack and the region map are warm, a reused context that enters and
// leaves regions (one nested, classes crossing both ways) allocates
// nothing.
func TestRegionDatapathAllocFree(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not exact under -race")
	}
	c := New()
	run := func() {
		c.Reset()
		opSequence(c, 10)
		end := c.Begin("halo", Unique)
		opSequence(c, 10)
		c.Begin("pack", Common)
		opSequence(c, 5)
		c.End()
		end()
		opSequence(c, 10)
		if c.Counts() != (Counts{Common: 75, Unique: 30}) {
			t.Fatal("datapath miscounted")
		}
	}
	run() // warm the stack and the region map once
	if n := testing.AllocsPerRun(100, run); n != 0 {
		t.Fatalf("reused datapath with regions allocates %v allocs/run, want 0", n)
	}
}
