package fpe

import (
	"math"
	"testing"
	"testing/quick"

	"resmod/internal/stats"
)

func TestKindCountsAccumulate(t *testing.T) {
	c := New()
	c.Add(1, 1)
	c.Add(1, 1)
	c.Sub(1, 1)
	c.Mul(1, 1)
	end := c.Begin("u", Unique)
	c.Mul(2, 2)
	end()
	kc := c.KindCounts()
	if kc.ByClassKind[Common][OpAdd] != 2 || kc.ByClassKind[Common][OpSub] != 1 ||
		kc.ByClassKind[Common][OpMul] != 1 || kc.ByClassKind[Unique][OpMul] != 1 {
		t.Fatalf("kind counts = %+v", kc)
	}
	if kc.Of(Common) != 4 {
		t.Fatalf("Of(Common) = %d", kc.Of(Common))
	}
	if kc.Counts() != (Counts{Common: 4, Unique: 1}) {
		t.Fatalf("Counts() = %+v", kc.Counts())
	}
}

func TestDrawAnyRegionKMatchesSingleDraw(t *testing.T) {
	// The k=1 draw must consume the RNG sequence the historical
	// single-error draw did — the flat site, then the bit, then the
	// operand: cached campaign summaries and checkpoints depend on the
	// draw stream staying stable.
	counts := Counts{Common: 700, Unique: 300}
	for seed := uint64(0); seed < 50; seed++ {
		ref := stats.NewRNG(seed)
		want := Injection{Class: Common, Index: ref.SampleDistinct(1, 1000)[0]}
		if want.Index >= 700 {
			want.Class, want.Index = Unique, want.Index-700
		}
		want.Bit = uint(ref.Intn(64))
		want.Operand = ref.Intn(2)
		got, err := DrawPlanAnyRegion(stats.NewRNG(seed), counts, 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 1 || got[0] != want {
			t.Fatalf("seed %d: k=1 draw %+v, single draw %+v", seed, got, want)
		}
	}
}

func TestDrawAnyRegionKSpansBothClasses(t *testing.T) {
	// A unique-heavy stream: k=3 errors drawn over the union must strike
	// the parallel-unique computation in roughly its weight, and indices
	// must be distinct within each class stream.
	rng := stats.NewRNG(7)
	counts := Counts{Common: 100, Unique: 900}
	uniqueHits, draws := 0, 0
	for i := 0; i < 1000; i++ {
		plan, err := DrawPlanAnyRegion(rng, counts, 3)
		if err != nil {
			t.Fatal(err)
		}
		if len(plan) != 3 {
			t.Fatalf("got %d injections, want 3", len(plan))
		}
		seen := map[[2]uint64]bool{}
		for _, inj := range plan {
			key := [2]uint64{uint64(inj.Class), inj.Index}
			if seen[key] {
				t.Fatalf("duplicate injection site %+v in plan %+v", inj, plan)
			}
			seen[key] = true
			switch inj.Class {
			case Common:
				if inj.Index >= 100 {
					t.Fatalf("common index %d out of stream", inj.Index)
				}
			case Unique:
				if inj.Index >= 900 {
					t.Fatalf("unique index %d out of stream", inj.Index)
				}
				uniqueHits++
			}
			draws++
		}
	}
	frac := float64(uniqueHits) / float64(draws)
	if math.Abs(frac-0.9) > 0.03 {
		t.Fatalf("unique fraction %g, want ~0.9", frac)
	}
}

func TestDrawAnyRegionKValidation(t *testing.T) {
	rng := stats.NewRNG(1)
	counts := Counts{Common: 3, Unique: 2}
	if _, err := DrawPlanAnyRegion(rng, counts, 6); err == nil {
		t.Fatal("k larger than the union stream accepted")
	}
	if _, err := DrawPlanAnyRegion(rng, counts, -1); err == nil {
		t.Fatal("negative k accepted")
	}
	if _, err := DrawPlanAnyRegion(rng, Counts{}, 1); err == nil {
		t.Fatal("empty stream accepted")
	}
	// k equal to the whole union stream is legal and covers every site.
	plan, err := DrawPlanAnyRegion(rng, counts, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan) != 5 {
		t.Fatalf("got %d injections, want 5", len(plan))
	}
}

// Property: every drawn plan, when executed against a long enough op
// stream, fires exactly k times.
func TestDrawnPlansAlwaysFire(t *testing.T) {
	f := func(seed uint64, kRaw uint8) bool {
		k := int(kRaw%5) + 1
		rng := stats.NewRNG(seed)
		plan, err := DrawPlan(rng, Counts{Common: 200}, Common, k)
		if err != nil {
			return false
		}
		c := NewWithPlan(plan)
		for i := 0; i < 200; i++ {
			c.Add(float64(i), 1)
		}
		return c.Fired() == k && c.Pending() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
