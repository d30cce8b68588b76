package main

import (
	"reflect"
	"sort"
	"testing"
)

func TestWarmSequenceIsAFunctionOfTheSeed(t *testing.T) {
	a, b := warmSequence(7, 5000, 24), warmSequence(7, 5000, 24)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two different request sequences")
	}
	if reflect.DeepEqual(a, warmSequence(8, 5000, 24)) {
		t.Fatal("two seeds gave the same request sequence")
	}
}

func TestWarmSequenceHonoursTheMix(t *testing.T) {
	const n, k = 100_000, 24
	var kinds [numReqKinds]int
	keys := make([]int, k)
	for _, r := range warmSequence(2018, n, k) {
		kinds[r.kind]++
		keys[r.key]++
	}
	for kind, pct := range warmMix {
		got := 100 * float64(kinds[kind]) / n
		if d := got - float64(pct); d < -0.5 || d > 0.5 {
			t.Errorf("%s: %.2f%% of requests, mix says %d%%", reqKindNames[kind], got, pct)
		}
	}
	for key, c := range keys {
		if c < n/k*8/10 || c > n/k*12/10 {
			t.Errorf("key %d asked %d times, expected about %d", key, c, n/k)
		}
	}
}

func TestColdOrderIsASeededPermutation(t *testing.T) {
	a := coldOrder(7, 12)
	if !reflect.DeepEqual(a, coldOrder(7, 12)) {
		t.Fatal("the same seed gave two different orders")
	}
	if reflect.DeepEqual(a, coldOrder(8, 12)) {
		t.Fatal("two seeds gave the same order")
	}
	sorted := append([]int(nil), a...)
	sort.Ints(sorted)
	for i, v := range sorted {
		if v != i {
			t.Fatalf("order %v is not a permutation of 0..11", a)
		}
	}
}
