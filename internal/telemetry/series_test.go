package telemetry

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"resmod/internal/race"
)

func TestSeriesRingBoundedAndOrdered(t *testing.T) {
	s := NewSeriesStore(Window{Step: time.Second, Cap: 4})
	base := time.Unix(1000, 0)
	for i := 0; i < 10; i++ {
		s.Observe("x", base.Add(time.Duration(i)*time.Second), float64(i))
	}
	pts := s.Query("x", time.Unix(0, 0), 0)
	if len(pts) != 4 {
		t.Fatalf("ring kept %d points, want cap 4", len(pts))
	}
	for i, p := range pts {
		wantT := int64(1006 + i)
		wantV := float64(6 + i)
		if p.Unix != wantT || p.Value != wantV {
			t.Fatalf("point %d = {%d %v}, want {%d %v}", i, p.Unix, p.Value, wantT, wantV)
		}
	}
}

func TestSeriesBucketAveraging(t *testing.T) {
	s := NewSeriesStore(Window{Step: 10 * time.Second, Cap: 8})
	base := time.Unix(2000, 0)
	// Three samples in the same 10s bucket average.
	s.Observe("x", base, 1)
	s.Observe("x", base.Add(3*time.Second), 2)
	s.Observe("x", base.Add(6*time.Second), 6)
	pts := s.Query("x", time.Unix(0, 0), 0)
	if len(pts) != 1 {
		t.Fatalf("got %d points, want 1", len(pts))
	}
	if pts[0].Value != 3 {
		t.Fatalf("bucket mean = %v, want 3", pts[0].Value)
	}
	// Out-of-order (older than newest bucket) samples are dropped.
	s.Observe("x", base.Add(20*time.Second), 9)
	s.Observe("x", base, 100)
	pts = s.Query("x", time.Unix(0, 0), 0)
	if len(pts) != 2 || pts[0].Value != 3 || pts[1].Value != 9 {
		t.Fatalf("after stale write: %+v", pts)
	}
}

func TestSeriesQuerySinceAndCoarseFallback(t *testing.T) {
	// Fine ring holds 4×1s, coarse holds 100×10s: a query reaching past
	// the fine horizon must answer from the coarse ring.
	s := NewSeriesStore(Window{Step: time.Second, Cap: 4}, Window{Step: 10 * time.Second, Cap: 100})
	base := time.Unix(5000, 0)
	for i := 0; i < 60; i++ {
		s.Observe("x", base.Add(time.Duration(i)*time.Second), float64(i))
	}
	// Recent query: served at 1s resolution.
	fine := s.Query("x", base.Add(57*time.Second), 0)
	if len(fine) != 3 {
		t.Fatalf("fine query returned %d points, want 3", len(fine))
	}
	// Query from the start: fine ring lost it, coarse ring covers it.
	coarse := s.Query("x", base, 0)
	if len(coarse) != 6 {
		t.Fatalf("coarse query returned %d points, want 6 (10s buckets over 60s)", len(coarse))
	}
	if coarse[0].Unix != 5000 {
		t.Fatalf("coarse first bucket at %d, want 5000", coarse[0].Unix)
	}
}

func TestDownsample(t *testing.T) {
	pts := make([]SamplePoint, 10)
	for i := range pts {
		pts[i] = SamplePoint{Unix: int64(i), Value: float64(i)}
	}
	down := Downsample(pts, 5)
	if len(down) != 5 {
		t.Fatalf("downsampled to %d, want 5", len(down))
	}
	if down[0].Value != 0.5 || down[0].Unix != 1 {
		t.Fatalf("first group = %+v, want mean 0.5 at t=1", down[0])
	}
	if got := Downsample(pts, 0); len(got) != 10 {
		t.Fatalf("maxPoints=0 must be a no-op, got %d points", len(got))
	}
	if got := Downsample(pts, 100); len(got) != 10 {
		t.Fatalf("maxPoints>len must be a no-op, got %d points", len(got))
	}
}

func TestSeriesStoreNilSafe(t *testing.T) {
	var s *SeriesStore
	s.Observe("x", time.Now(), 1)
	if s.Names() != nil || s.Windows() != nil {
		t.Fatal("nil store must report nothing")
	}
	if pts := s.Query("x", time.Time{}, 0); pts != nil {
		t.Fatal("nil store query must return nil")
	}
	if _, ok := s.Latest("x"); ok {
		t.Fatal("nil store has no latest point")
	}
	var sm *Sampler
	sm.SampleNow(time.Now()) // must not panic
	sm.Run(nil)              // nil sampler returns immediately
}

func TestSeriesMaxNames(t *testing.T) {
	s := NewSeriesStore(Window{Step: time.Second, Cap: 2})
	s.maxSeries = 3
	now := time.Unix(100, 0)
	for i := 0; i < 10; i++ {
		s.Observe(fmt.Sprintf("s%d", i), now, 1)
	}
	if got := len(s.Names()); got != 3 {
		t.Fatalf("store accepted %d series, want cap 3", got)
	}
	// Existing series keep recording past the cap.
	s.Observe("s0", now.Add(time.Second), 2)
	if pts := s.Query("s0", time.Unix(0, 0), 0); len(pts) != 2 {
		t.Fatalf("capped store dropped writes to existing series: %+v", pts)
	}
}

// TestSeriesConcurrentObserveQuery is the ring race test: writers and
// readers hammer the store under -race.
func TestSeriesConcurrentObserveQuery(t *testing.T) {
	s := NewSeriesStore(Window{Step: time.Second, Cap: 16})
	base := time.Unix(1000, 0)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			name := fmt.Sprintf("s%d", g%2)
			for i := 0; i < 500; i++ {
				s.Observe(name, base.Add(time.Duration(i)*time.Millisecond*40), float64(i))
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				s.Query(fmt.Sprintf("s%d", g%2), base, 8)
				s.Names()
				s.Latest("s0")
			}
		}(g)
	}
	wg.Wait()
}

func TestSamplerRates(t *testing.T) {
	store := NewSeriesStore(Window{Step: time.Second, Cap: 64})
	var counter, gauge float64
	src := func() Samples {
		return Samples{
			Gauges:   map[string]float64{"g": gauge},
			Counters: map[string]float64{"c": counter},
		}
	}
	sm := NewSampler(store, src, time.Second)
	base := time.Unix(3000, 0)

	counter, gauge = 100, 7
	sm.SampleNow(base) // seeds the counter baseline; no rate yet
	if pts := store.Query("c", time.Unix(0, 0), 0); len(pts) != 0 {
		t.Fatalf("first tick must not record a rate, got %+v", pts)
	}
	if p, ok := store.Latest("g"); !ok || p.Value != 7 {
		t.Fatalf("gauge not stored verbatim: %+v ok=%v", p, ok)
	}

	counter = 150 // +50 over 5s → 10/s
	sm.SampleNow(base.Add(5 * time.Second))
	if p, ok := store.Latest("c"); !ok || p.Value != 10 {
		t.Fatalf("rate = %+v ok=%v, want 10/s", p, ok)
	}

	// A counter reset (process restart) records nothing and re-bases.
	counter = 20
	sm.SampleNow(base.Add(10 * time.Second))
	if p, _ := store.Latest("c"); p.Unix != base.Add(5*time.Second).Unix() {
		t.Fatalf("reset interval recorded a point: %+v", p)
	}
	counter = 30 // +10 over 5s → 2/s from the new base
	sm.SampleNow(base.Add(15 * time.Second))
	if p, ok := store.Latest("c"); !ok || p.Value != 2 {
		t.Fatalf("post-reset rate = %+v ok=%v, want 2/s", p, ok)
	}
}

func TestSamplerOnSampleHook(t *testing.T) {
	store := NewSeriesStore(Window{Step: time.Second, Cap: 4})
	sm := NewSampler(store, func() Samples {
		return Samples{Gauges: map[string]float64{"g": 1}}
	}, time.Second)
	var calls int
	sm.OnSample(func(time.Time) { calls++ })
	sm.SampleNow(time.Unix(1, 0))
	sm.SampleNow(time.Unix(2, 0))
	if calls != 2 {
		t.Fatalf("hook ran %d times, want 2", calls)
	}
}

func TestSamplerRunStops(t *testing.T) {
	store := NewSeriesStore(Window{Step: time.Second, Cap: 4})
	sm := NewSampler(store, func() Samples {
		return Samples{Gauges: map[string]float64{"g": 1}}
	}, time.Millisecond)
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() { sm.Run(done); close(finished) }()
	time.Sleep(20 * time.Millisecond)
	close(done)
	select {
	case <-finished:
	case <-time.After(2 * time.Second):
		t.Fatal("Run did not stop after done closed")
	}
	if _, ok := store.Latest("g"); !ok {
		t.Fatal("Run recorded no samples")
	}
}

// TestSamplerDropsAbsentSeries: a series the source stops reporting is
// retired — dropped from the store, its counter baseline forgotten — and
// one that returns starts over instead of differentiating across the gap.
func TestSamplerDropsAbsentSeries(t *testing.T) {
	store := NewSeriesStore(Window{Step: time.Second, Cap: 64})
	workers := []string{"w1", "w2"}
	sm := NewSampler(store, func() Samples {
		s := Samples{Gauges: map[string]float64{"depth": 1}, Counters: map[string]float64{}}
		for _, w := range workers {
			s.Gauges["age/"+w] = 2
			s.Counters["flaps/"+w] = 5
		}
		return s
	}, time.Second)
	base := time.Unix(5000, 0)
	sm.SampleNow(base)
	sm.SampleNow(base.Add(time.Second))
	if got := store.Names(); len(got) != 5 {
		t.Fatalf("names before retirement = %v, want 5 series", got)
	}

	workers = []string{"w2"}
	sm.SampleNow(base.Add(2 * time.Second))
	want := []string{"age/w2", "depth", "flaps/w2"}
	if got := store.Names(); !reflect.DeepEqual(got, want) {
		t.Fatalf("names after w1 retired = %v, want %v", got, want)
	}

	// w1 comes back: the first tick only re-seeds its counter baseline.
	workers = []string{"w1", "w2"}
	sm.SampleNow(base.Add(3 * time.Second))
	if _, ok := store.Latest("flaps/w1"); ok {
		t.Fatal("returning counter differentiated against its pre-retirement baseline")
	}
}

// tickSource mimics the server's sample source: a realistic mix of
// gauges and counters per tick.
func tickSource() Samples {
	return Samples{
		Gauges: map[string]float64{
			"queue_depth":         3,
			"queue_saturation":    0.2,
			"jobs_inflight":       2,
			"campaigns_running":   1,
			"fleet_workers_alive": 4,
		},
		Counters: map[string]float64{
			"trials_total":   123456,
			"sheds_total":    17,
			"http_5xx_total": 2,
		},
	}
}

// TestSamplerTickAllocBounded pins the sampler's steady-state
// allocation footprint so retention stays cheap enough to leave on
// everywhere: the source map construction dominates; the store side
// must not allocate per tick once rings exist.
func TestSamplerTickAllocBounded(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts differ under the race detector")
	}
	store := NewSeriesStore()
	sm := NewSampler(store, tickSource, time.Second)
	now := time.Unix(1_000_000, 0)
	sm.SampleNow(now) // warm: create rings, seed baselines
	avg := testing.AllocsPerRun(200, func() {
		now = now.Add(time.Second)
		sm.SampleNow(now)
	})
	// tickSource itself builds two maps (~10+ allocs); the bound leaves
	// headroom for map internals but catches any per-tick ring growth.
	const bound = 32
	if avg > bound {
		t.Errorf("sampler tick allocates %.1f allocs/run; want <= %d", avg, bound)
	}
}
