package telemetry

import (
	"sort"
	"sync"
	"time"
)

// Time-series retention: a bounded in-process store of sampled metric
// values, so an operator can ask "what was the shed rate over the last
// five minutes" without an external Prometheus.  The store is
// observation-only — it is fed by a Sampler that snapshots counters and
// gauges on a timer; nothing on the campaign hot path ever writes here.
//
// Memory is bounded by construction: each named series keeps one
// fixed-capacity ring per retention window (default 10s×360 ≈ 1h fine
// plus 1m×720 = 12h coarse, ~17KB per series), and the store caps the
// number of distinct series names.

// Window describes one retention ring: samples bucketed at Step
// resolution, keeping the newest Cap buckets.
type Window struct {
	Step time.Duration `json:"step_ns"`
	Cap  int           `json:"cap"`
}

// DefaultWindows is the standard two-tier retention: an hour at 10s
// resolution and twelve hours at 1m.
var DefaultWindows = []Window{
	{Step: 10 * time.Second, Cap: 360},
	{Step: time.Minute, Cap: 720},
}

// DefaultMaxSeries bounds the number of distinct series names a store
// accepts; beyond it new names are dropped (existing ones keep
// recording), so a label explosion cannot grow memory without bound.
const DefaultMaxSeries = 512

// SamplePoint is one retained observation: a unix-seconds timestamp and
// the (bucket-averaged) value.
type SamplePoint struct {
	Unix  int64   `json:"t"`
	Value float64 `json:"v"`
}

// slot is one ring bucket: the bucket's start time plus a running
// sum/count so multiple observations within a bucket average.
type slot struct {
	bucket int64 // unix seconds, truncated to the ring step
	sum    float64
	n      uint32
}

// ring is a fixed-capacity circular buffer of slots.
type ring struct {
	step int64 // seconds
	buf  []slot
	head int // index of the newest slot (valid when n > 0)
	n    int
}

func newRing(w Window) *ring {
	step := int64(w.Step / time.Second)
	if step < 1 {
		step = 1
	}
	cap := w.Cap
	if cap < 1 {
		cap = 1
	}
	return &ring{step: step, buf: make([]slot, cap)}
}

// observe folds one sample into the ring.  Samples landing in the
// current newest bucket average into it; a newer bucket rotates the
// ring (dropping the oldest when full); older-than-newest samples are
// dropped — the sampler only ever moves forward.
func (r *ring) observe(unix int64, v float64) {
	bucket := unix - unix%r.step
	if r.n > 0 {
		newest := &r.buf[r.head]
		if bucket == newest.bucket {
			newest.sum += v
			newest.n++
			return
		}
		if bucket < newest.bucket {
			return
		}
	}
	r.head = (r.head + 1) % len(r.buf)
	r.buf[r.head] = slot{bucket: bucket, sum: v, n: 1}
	if r.n < len(r.buf) {
		r.n++
	}
}

// points appends the ring's samples at or after since (unix seconds),
// oldest first.
func (r *ring) points(since int64, out []SamplePoint) []SamplePoint {
	for i := 0; i < r.n; i++ {
		s := r.buf[(r.head-r.n+1+i+len(r.buf))%len(r.buf)]
		if s.bucket < since || s.n == 0 {
			continue
		}
		out = append(out, SamplePoint{Unix: s.bucket, Value: s.sum / float64(s.n)})
	}
	return out
}

// oldest returns the ring's oldest retained bucket (0 when empty).
func (r *ring) oldest() int64 {
	if r.n == 0 {
		return 0
	}
	return r.buf[(r.head-r.n+1+len(r.buf))%len(r.buf)].bucket
}

// series is one named metric's retention: one ring per window.
type series struct {
	rings []*ring
}

// SeriesStore retains sampled values for a bounded set of named series.
// A nil *SeriesStore is valid and inert, mirroring *Progress: call
// sites need no nil checks.
type SeriesStore struct {
	windows   []Window
	maxSeries int

	mu     sync.Mutex
	series map[string]*series
}

// NewSeriesStore builds a store over the given retention windows
// (DefaultWindows when none are given).
func NewSeriesStore(windows ...Window) *SeriesStore {
	if len(windows) == 0 {
		windows = DefaultWindows
	}
	return &SeriesStore{
		windows:   windows,
		maxSeries: DefaultMaxSeries,
		series:    make(map[string]*series),
	}
}

// Windows returns the store's retention tiers.
func (s *SeriesStore) Windows() []Window {
	if s == nil {
		return nil
	}
	return s.windows
}

// Observe records one sample into every retention ring of the named
// series, creating the series on first touch (unless the store is at
// its name cap).  Nil-safe no-op.
func (s *SeriesStore) Observe(name string, now time.Time, v float64) {
	if s == nil {
		return
	}
	unix := now.Unix()
	s.mu.Lock()
	defer s.mu.Unlock()
	sr, ok := s.series[name]
	if !ok {
		if len(s.series) >= s.maxSeries {
			return
		}
		sr = &series{rings: make([]*ring, len(s.windows))}
		for i, w := range s.windows {
			sr.rings[i] = newRing(w)
		}
		s.series[name] = sr
	}
	for _, r := range sr.rings {
		r.observe(unix, v)
	}
}

// Drop forgets the named series and its retained points.  Nil-safe.
func (s *SeriesStore) Drop(name string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	delete(s.series, name)
	s.mu.Unlock()
}

// Names lists the known series, sorted.  Nil-safe.
func (s *SeriesStore) Names() []string {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	names := make([]string, 0, len(s.series))
	for n := range s.series {
		names = append(names, n)
	}
	s.mu.Unlock()
	sort.Strings(names)
	return names
}

// Latest returns the newest retained point of the named series.
// Nil-safe; ok is false when the series is unknown or empty.
func (s *SeriesStore) Latest(name string) (SamplePoint, bool) {
	if s == nil {
		return SamplePoint{}, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	sr := s.series[name]
	if sr == nil {
		return SamplePoint{}, false
	}
	r := sr.rings[0]
	if r.n == 0 {
		return SamplePoint{}, false
	}
	newest := r.buf[r.head]
	return SamplePoint{Unix: newest.bucket, Value: newest.sum / float64(newest.n)}, true
}

// MeanSince returns the mean of the named series' points at or after
// since, with the number of points averaged.  Nil-safe.
func (s *SeriesStore) MeanSince(name string, since time.Time) (float64, int) {
	pts := s.Query(name, since, 0)
	if len(pts) == 0 {
		return 0, 0
	}
	var sum float64
	for _, p := range pts {
		sum += p.Value
	}
	return sum / float64(len(pts)), len(pts)
}

// Query returns the named series' points at or after since, oldest
// first, from the finest window that still covers since (a query
// reaching past the fine ring's horizon answers from the coarse one).
// When maxPoints > 0 and the selection is larger, adjacent points are
// averaged down to at most maxPoints — the dashboard's sparkline
// downsampler.  Nil-safe.
func (s *SeriesStore) Query(name string, since time.Time, maxPoints int) []SamplePoint {
	if s == nil {
		return nil
	}
	sinceUnix := since.Unix()
	s.mu.Lock()
	sr := s.series[name]
	var pts []SamplePoint
	if sr != nil {
		r := sr.rings[0]
		for _, cand := range sr.rings {
			if old := cand.oldest(); old != 0 && old <= sinceUnix {
				r = cand
				break
			}
			// Coarser rings reach further back; fall through to the
			// coarsest when none covers since.
			r = cand
		}
		pts = r.points(sinceUnix, make([]SamplePoint, 0, r.n))
	}
	s.mu.Unlock()
	return Downsample(pts, maxPoints)
}

// Downsample reduces pts to at most maxPoints by averaging adjacent
// groups (each group keeps its last timestamp).  maxPoints <= 0 returns
// pts unchanged.
func Downsample(pts []SamplePoint, maxPoints int) []SamplePoint {
	if maxPoints <= 0 || len(pts) <= maxPoints {
		return pts
	}
	out := make([]SamplePoint, 0, maxPoints)
	group := (len(pts) + maxPoints - 1) / maxPoints
	for i := 0; i < len(pts); i += group {
		end := i + group
		if end > len(pts) {
			end = len(pts)
		}
		var sum float64
		for _, p := range pts[i:end] {
			sum += p.Value
		}
		out = append(out, SamplePoint{
			Unix:  pts[end-1].Unix,
			Value: sum / float64(end-i),
		})
	}
	return out
}

// Samples is one sampling tick's raw readings, split by semantics:
// Gauges are stored as-is; Counters are monotone totals the sampler
// differentiates into per-second rates before storing (so the retained
// series for a counter name reads as a rate).
type Samples struct {
	Gauges   map[string]float64
	Counters map[string]float64
}

// SampleSource produces one tick's readings.  Sources must be cheap and
// safe to call from the sampler goroutine; they run outside any engine
// lock (they read atomic counters and snapshots only).
type SampleSource func() Samples

// Sampler periodically reads a SampleSource into a SeriesStore,
// converting counters into rates via consecutive-tick deltas.  Drive it
// either with Run (own ticker goroutine) or by calling SampleNow from
// an existing loop — the worker piggybacks sampling on its heartbeat
// ticks that way.
type Sampler struct {
	store *SeriesStore
	src   SampleSource
	every time.Duration

	// onSample, when set, runs after each tick lands in the store — the
	// alert engine's evaluation hook, so alerts always judge fresh data.
	onSample func(now time.Time)

	mu    sync.Mutex
	prev  map[string]float64 // counter name → total at the previous tick
	prevT time.Time
	tick  uint64
	live  map[string]uint64 // series name → tick that last reported it
}

// NewSampler builds a sampler over store reading src every period
// (default 10s when every <= 0).
func NewSampler(store *SeriesStore, src SampleSource, every time.Duration) *Sampler {
	if every <= 0 {
		every = 10 * time.Second
	}
	return &Sampler{store: store, src: src, every: every,
		prev: make(map[string]float64), live: make(map[string]uint64)}
}

// OnSample registers the post-tick hook.  Call before the sampler is
// shared between goroutines.
func (s *Sampler) OnSample(fn func(now time.Time)) {
	if s != nil {
		s.onSample = fn
	}
}

// SampleNow executes one tick at the given instant: read the source,
// store gauges verbatim, differentiate counters into rates.  A counter
// that decreased (process restart, source reset) records no rate for
// that interval and re-bases.  A series reported on the previous tick
// but not on this one was retired by its owner: it is dropped from the
// store and its counter baseline forgotten — the one signal the
// /v1/series index and wildcard alert instances follow.  Nil-safe.
func (s *Sampler) SampleNow(now time.Time) {
	if s == nil {
		return
	}
	smp := s.src()
	s.mu.Lock()
	s.tick++
	for name, v := range smp.Gauges {
		s.store.Observe(name, now, v)
		s.live[name] = s.tick
	}
	dt := now.Sub(s.prevT).Seconds()
	for name, v := range smp.Counters {
		prev, seen := s.prev[name]
		if seen && dt > 0 && v >= prev {
			s.store.Observe(name, now, (v-prev)/dt)
		}
		s.prev[name] = v
		s.live[name] = s.tick
	}
	s.prevT = now
	for name, at := range s.live {
		if at != s.tick {
			s.store.Drop(name)
			delete(s.live, name)
			delete(s.prev, name)
		}
	}
	s.mu.Unlock()
	if s.onSample != nil {
		s.onSample(now)
	}
}

// Run ticks until done is closed (or the channel is nil and the
// goroutine leaks — pass a real channel).  One immediate tick seeds the
// counter baselines so the first real interval yields rates.
func (s *Sampler) Run(done <-chan struct{}) {
	if s == nil {
		return
	}
	s.SampleNow(time.Now())
	t := time.NewTicker(s.every)
	defer t.Stop()
	for {
		select {
		case <-done:
			return
		case now := <-t.C:
			s.SampleNow(now)
		}
	}
}
