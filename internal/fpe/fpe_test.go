package fpe

import (
	"math"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"resmod/internal/stats"
)

func TestArithmeticWithoutInjection(t *testing.T) {
	c := New()
	if got := c.Add(2, 3); got != 5 {
		t.Fatalf("Add = %g", got)
	}
	if got := c.Sub(2, 3); got != -1 {
		t.Fatalf("Sub = %g", got)
	}
	if got := c.Mul(2, 3); got != 6 {
		t.Fatalf("Mul = %g", got)
	}
	if got := c.Div(6, 3); got != 2 {
		t.Fatalf("Div = %g", got)
	}
	if got := c.FMA(2, 3, 4); got != 10 {
		t.Fatalf("FMA = %g", got)
	}
	counts := c.Counts()
	// Add+Sub+Mul+FMA(mul+add) = 5 injectable ops, all common.
	if counts.Common != 5 || counts.Unique != 0 {
		t.Fatalf("counts = %+v", counts)
	}
	if c.Divs() != 1 {
		t.Fatalf("divs = %d", c.Divs())
	}
}

func TestFlipBitInvolution(t *testing.T) {
	f := func(v float64, bitRaw uint8) bool {
		bit := uint(bitRaw % 64)
		flipped := FlipBit(v, bit)
		back := FlipBit(flipped, bit)
		return math.Float64bits(back) == math.Float64bits(v) &&
			math.Float64bits(flipped) != math.Float64bits(v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestFlipBitKnown(t *testing.T) {
	// Flipping the sign bit of 1.0 gives -1.0.
	if got := FlipBit(1.0, 63); got != -1.0 {
		t.Fatalf("sign flip = %g", got)
	}
	// Flipping mantissa bit 51 of 1.0 gives 1.5.
	if got := FlipBit(1.0, 51); got != 1.5 {
		t.Fatalf("mantissa flip = %g", got)
	}
}

func TestFlipBitPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("FlipBit(.., 64) did not panic")
		}
	}()
	FlipBit(1, 64)
}

func TestInjectionFires(t *testing.T) {
	// Third injectable op (index 2), operand 0, sign bit.
	c := NewWithPlan([]Injection{{Class: Common, Index: 2, Bit: 63, Operand: 0}})
	c.Add(1, 1) // index 0
	c.Mul(2, 2) // index 1
	got := c.Add(10, 1)
	if got != -9 { // (-10) + 1
		t.Fatalf("injected Add = %g, want -9", got)
	}
	if c.Fired() != 1 || c.Pending() != 0 {
		t.Fatalf("fired=%d pending=%d", c.Fired(), c.Pending())
	}
	rec := c.Records()[0]
	if rec.Before != 10 || rec.After != -10 || rec.Op != OpAdd {
		t.Fatalf("record = %+v", rec)
	}
}

func TestInjectionOperandB(t *testing.T) {
	c := NewWithPlan([]Injection{{Class: Common, Index: 0, Bit: 63, Operand: 1}})
	if got := c.Add(10, 1); got != 9 { // 10 + (-1)
		t.Fatalf("injected = %g, want 9", got)
	}
}

func TestInjectionRespectsRegionClass(t *testing.T) {
	// An injection planned for the Unique stream must not fire in Common
	// computation even at the same dynamic index.
	c := NewWithPlan([]Injection{{Class: Unique, Index: 0, Bit: 63, Operand: 0}})
	c.Add(1, 1) // common index 0: no fire
	if c.Fired() != 0 {
		t.Fatal("injection fired in wrong region class")
	}
	end := c.Begin("pack", Unique)
	got := c.Add(5, 0)
	end()
	if got != -5 {
		t.Fatalf("unique injection = %g, want -5", got)
	}
	if c.Fired() != 1 {
		t.Fatal("unique injection did not fire")
	}
	if c.Records()[0].Region != "pack" {
		t.Fatalf("region = %q", c.Records()[0].Region)
	}
}

func TestMultipleInjectionsSorted(t *testing.T) {
	// Plan given out of order; both must fire at the right indices.
	c := NewWithPlan([]Injection{
		{Class: Common, Index: 3, Bit: 63, Operand: 0},
		{Class: Common, Index: 1, Bit: 63, Operand: 0},
	})
	vals := []float64{1, 2, 3, 4, 5}
	var out []float64
	for _, v := range vals {
		out = append(out, c.Add(v, 0))
	}
	want := []float64{1, -2, 3, -4, 5}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("out = %v, want %v", out, want)
		}
	}
}

func TestTwoInjectionsSameIndex(t *testing.T) {
	// Two flips at the same dynamic op (different bits) both fire.
	c := NewWithPlan([]Injection{
		{Class: Common, Index: 0, Bit: 63, Operand: 0},
		{Class: Common, Index: 0, Bit: 51, Operand: 0},
	})
	got := c.Add(1, 0)
	if got != -1.5 {
		t.Fatalf("double flip = %g, want -1.5", got)
	}
	if c.Fired() != 2 {
		t.Fatalf("fired = %d", c.Fired())
	}
}

func TestRegionNestingAndCounts(t *testing.T) {
	c := New()
	c.Add(1, 1) // common
	endOuter := c.Begin("outer", Unique)
	c.Add(1, 1) // unique
	endInner := c.Begin("inner", Common)
	c.Add(1, 1) // common again (nested override)
	c.Mul(1, 1)
	endInner()
	c.Add(1, 1) // unique
	endOuter()
	c.Add(1, 1) // common

	counts := c.Counts()
	if counts.Common != 4 || counts.Unique != 2 {
		t.Fatalf("counts = %+v", counts)
	}
	rc := c.RegionCounts()
	if rc["inner"].Common != 2 || rc["inner"].Unique != 0 {
		t.Fatalf("inner = %+v", rc["inner"])
	}
	if rc["outer"].Unique != 2 || rc["outer"].Common != 2 {
		t.Fatalf("outer = %+v", rc["outer"])
	}
}

func TestEndWithoutBeginPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unbalanced End did not panic")
		}
	}()
	New().End()
}

func TestUniqueFraction(t *testing.T) {
	c := Counts{Common: 90, Unique: 10}
	if f := c.UniqueFraction(); math.Abs(f-0.1) > 1e-12 {
		t.Fatalf("UniqueFraction = %g", f)
	}
	if (Counts{}).UniqueFraction() != 0 {
		t.Fatal("empty counts fraction not 0")
	}
}

func TestDotAxpy(t *testing.T) {
	c := New()
	x := []float64{1, 2, 3}
	y := []float64{4, 5, 6}
	if got := c.Dot(x, y); got != 32 {
		t.Fatalf("Dot = %g", got)
	}
	c.Axpy(2, x, y)
	want := []float64{6, 9, 12}
	for i := range want {
		if y[i] != want[i] {
			t.Fatalf("Axpy y = %v", y)
		}
	}
	c.SubVec(y, y, x)
	c.AddVec(x, x, y)
	if want := []float64{6, 9, 12}; !slices.Equal(x, want) {
		t.Fatalf("SubVec then AddVec x = %v", x)
	}
}

func TestDrawPlanProperties(t *testing.T) {
	f := func(seed uint64, kRaw uint8) bool {
		counts := Counts{Common: 1000, Unique: 50}
		k := int(kRaw % 16)
		rng := stats.NewRNG(seed)
		plan, err := DrawPlan(rng, counts, Common, k)
		if err != nil || len(plan) != k {
			return false
		}
		seen := map[uint64]bool{}
		for _, inj := range plan {
			if inj.Class != Common || inj.Index >= counts.Common || inj.Bit > 63 ||
				(inj.Operand != 0 && inj.Operand != 1) || seen[inj.Index] {
				return false
			}
			seen[inj.Index] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDrawPlanErrors(t *testing.T) {
	rng := stats.NewRNG(1)
	if _, err := DrawPlan(rng, Counts{Common: 2}, Common, 3); err == nil {
		t.Fatal("overlong plan accepted")
	}
	if _, err := DrawPlan(rng, Counts{Common: 2}, Common, -1); err == nil {
		t.Fatal("negative plan accepted")
	}
	if _, err := DrawPlanAnyRegion(rng, Counts{}, 1); err == nil {
		t.Fatal("empty stream accepted")
	}
}

func TestDrawPlanAnyRegionWeighting(t *testing.T) {
	// With 90% of ops in common, ~90% of single-error plans land there.
	rng := stats.NewRNG(42)
	counts := Counts{Common: 900, Unique: 100}
	common := 0
	const trials = 20000
	for i := 0; i < trials; i++ {
		plan, err := DrawPlanAnyRegion(rng, counts, 1)
		if err != nil {
			t.Fatal(err)
		}
		inj := plan[0]
		switch inj.Class {
		case Common:
			if inj.Index >= counts.Common {
				t.Fatal("common index out of range")
			}
			common++
		case Unique:
			if inj.Index >= counts.Unique {
				t.Fatal("unique index out of range")
			}
		}
	}
	frac := float64(common) / trials
	if math.Abs(frac-0.9) > 0.02 {
		t.Fatalf("common fraction = %g, want ~0.9", frac)
	}
}

// Property: a full run with a plan and the same run without a plan execute
// the same number of operations (injection corrupts values, not control
// counts at the fpe level).
func TestInjectionPreservesOpCount(t *testing.T) {
	run := func(c *Ctx) {
		s := 0.0
		for i := 0; i < 100; i++ {
			s = c.Add(s, c.Mul(float64(i), 1.5))
		}
	}
	clean := New()
	run(clean)
	injected := NewWithPlan([]Injection{{Class: Common, Index: 50, Bit: 40, Operand: 0}})
	run(injected)
	if clean.Counts() != injected.Counts() {
		t.Fatalf("op counts differ: %+v vs %+v", clean.Counts(), injected.Counts())
	}
}

func TestStringMethods(t *testing.T) {
	if Common.String() != "common" || Unique.String() != "unique" {
		t.Fatal("RegionClass strings wrong")
	}
	if RegionClass(9).String() == "" {
		t.Fatal("unknown region class has empty string")
	}
	kinds := map[OpKind]string{OpAdd: "fadd", OpSub: "fsub", OpMul: "fmul", OpDiv: "fdiv"}
	for k, want := range kinds {
		if k.String() != want {
			t.Fatalf("%v", k)
		}
	}
	if OpKind(9).String() == "" {
		t.Fatal("unknown op kind has empty string")
	}
}

func TestNewWithPlanRejectsBadClass(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid region class accepted")
		}
	}()
	NewWithPlan([]Injection{{Class: RegionClass(7)}})
}

// TestLoadRejectsMalformedInjection: a bit or an operand out of range
// panics when the plan is loaded — in the harness, where it is a bug —
// not at fire time inside a rank, where it would be tallied as the
// application's Failure.
func TestLoadRejectsMalformedInjection(t *testing.T) {
	for _, inj := range []Injection{
		{Bit: 64},
		{Operand: 2},
		{Operand: -1},
	} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.HasPrefix(msg, "fpe: invalid ") || !strings.HasSuffix(msg, " in plan") {
					t.Fatalf("%+v: loading panicked with %q, want fpe: invalid … in plan", inj, msg)
				}
			}()
			NewWithPlan([]Injection{inj})
		}()
	}
}

func TestPlanErrorMessage(t *testing.T) {
	e := &PlanError{Class: Unique, Want: 3, Have: 1, Reason: "too short"}
	if e.Error() == "" || e.Class != Unique {
		t.Fatal("PlanError malformed")
	}
}
