package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 1000; i++ {
		if av, bv := a.Uint64(), b.Uint64(); av != bv {
			t.Fatalf("sequence diverged at step %d: %d != %d", i, av, bv)
		}
	}
}

func TestRNGSeedSensitivity(t *testing.T) {
	a := NewRNG(1)
	b := NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("seeds 1 and 2 produced %d/100 identical outputs", same)
	}
}

func TestRNGSplitIndependence(t *testing.T) {
	base := NewRNG(7)
	s1 := base.Split(0)
	s2 := base.Split(1)
	if s1.Uint64() == s2.Uint64() {
		t.Fatal("split streams 0 and 1 start identically")
	}
	// Split must not advance the base generator.
	c1 := NewRNG(7)
	if base.Uint64() != c1.Uint64() {
		t.Fatal("Split advanced the base generator")
	}
}

func TestRNGSplitDeterminism(t *testing.T) {
	a := NewRNG(9).Split(5)
	b := NewRNG(9).Split(5)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same split stream is not deterministic")
		}
	}
}

func TestIntnRange(t *testing.T) {
	r := NewRNG(3)
	for n := 1; n <= 17; n++ {
		for i := 0; i < 200; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestUint64nUniformity(t *testing.T) {
	// Chi-square-lite check: 10 buckets, 100k draws, each bucket within
	// 5% relative of expected.
	r := NewRNG(11)
	const buckets, draws = 10, 100000
	var counts [buckets]int
	for i := 0; i < draws; i++ {
		counts[r.Uint64n(buckets)]++
	}
	exp := float64(draws) / buckets
	for i, c := range counts {
		if math.Abs(float64(c)-exp) > 0.05*exp {
			t.Fatalf("bucket %d count %d deviates >5%% from %g", i, c, exp)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(13)
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of [0,1): %g", v)
		}
		sum += v
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean %g too far from 0.5", mean)
	}
}

func TestSampleDistinctProperties(t *testing.T) {
	f := func(seed uint64, kRaw, nRaw uint16) bool {
		n := uint64(nRaw%500) + 1
		k := int(uint64(kRaw) % (n + 1))
		out := NewRNG(seed).SampleDistinct(k, n)
		if len(out) != k {
			return false
		}
		for i, v := range out {
			if v >= n {
				return false
			}
			if i > 0 && out[i-1] >= v { // strictly ascending => distinct
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSampleDistinctFull(t *testing.T) {
	// k == n must return every value exactly once.
	out := NewRNG(5).SampleDistinct(8, 8)
	for i, v := range out {
		if v != uint64(i) {
			t.Fatalf("full sample not a sorted permutation: %v", out)
		}
	}
}

func TestMul128AgainstBig(t *testing.T) {
	f := func(a, b uint64) bool {
		hi, lo := mul128(a, b)
		// Verify via 4x32 decomposition independently.
		wantLo := a * b
		// Karatsuba-free reference for the high word.
		aLo, aHi := a&0xffffffff, a>>32
		bLo, bHi := b&0xffffffff, b>>32
		carry := ((aLo*bLo)>>32 + (aHi*bLo)&0xffffffff + (aLo*bHi)&0xffffffff) >> 32
		wantHi := aHi*bHi + (aHi*bLo)>>32 + (aLo*bHi)>>32 + carry
		return lo == wantLo && hi == wantHi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
