package telemetry

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"resmod/internal/race"
)

// TestRegistryWriteText pins the encoder on one document: declaration
// order is output order; HELP/TYPE appear for a labelled family with no
// samples; label values are quoted the way %q quotes them; an integral
// value prints in plain decimal however large (a labelled counter at a
// million does not read 1e+06); histogram buckets are cumulative and the
// +Inf bucket equals _count, with and without labels.
func TestRegistryWriteText(t *testing.T) {
	h := NewHistogram([]float64{0.5, 1, 5})
	for _, v := range []float64{0.1, 0.7, 0.7, 3, 99} {
		h.Observe(v)
	}
	reg := NewRegistry()
	reg.Counter("z_hits_total", "Hits.").Add(999_999)
	reg.Gauge("a_level", "Level.").Store(-4)
	reg.GaugeFunc("m_empty", "No samples yet.", func(*Emitter) {})
	reg.CounterFunc("b_by_path_total", "By path.", func(e *Emitter) {
		e.Add(1_000_000, "path", `/v1/"odd"\x`, "code", "200")
		e.Add(0.25, "path", "/", "code", "500")
	})
	reg.HistogramFunc("plain_seconds", "Plain.", func(e *Emitter) { e.Hist(h.Snapshot()) })
	reg.HistogramFunc("wait_seconds", "By tenant.", func(e *Emitter) { e.Hist(h.Snapshot(), "tenant", "anon") })

	want := `# HELP z_hits_total Hits.
# TYPE z_hits_total counter
z_hits_total 999999
# HELP a_level Level.
# TYPE a_level gauge
a_level -4
# HELP m_empty No samples yet.
# TYPE m_empty gauge
# HELP b_by_path_total By path.
# TYPE b_by_path_total counter
b_by_path_total{path="/v1/\"odd\"\\x",code="200"} 1000000
b_by_path_total{path="/",code="500"} 0.25
# HELP plain_seconds Plain.
# TYPE plain_seconds histogram
plain_seconds_bucket{le="0.5"} 1
plain_seconds_bucket{le="1"} 3
plain_seconds_bucket{le="5"} 4
plain_seconds_bucket{le="+Inf"} 5
plain_seconds_sum 103.5
plain_seconds_count 5
# HELP wait_seconds By tenant.
# TYPE wait_seconds histogram
wait_seconds_bucket{tenant="anon",le="0.5"} 1
wait_seconds_bucket{tenant="anon",le="1"} 3
wait_seconds_bucket{tenant="anon",le="5"} 4
wait_seconds_bucket{tenant="anon",le="+Inf"} 5
wait_seconds_sum{tenant="anon"} 103.5
wait_seconds_count{tenant="anon"} 5
`
	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != want {
		t.Fatalf("exposition:\n%s\nwant:\n%s", got, want)
	}
	// Past 2^53 a float64 no longer holds every integer: shortest %g.
	if got := string(appendNumber(nil, 1<<53)); got != "9.007199254740992e+15" {
		t.Errorf("appendNumber(2^53) = %q", got)
	}
}

func TestRegistryDuplicateNamePanics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("dup_total", "First.")
	defer func() {
		if recover() == nil {
			t.Fatal("declaring dup_total twice did not panic")
		}
	}()
	reg.GaugeFunc("dup_total", "Second.", func(*Emitter) {})
}

// TestRegistrySource: the sampler's view is the same families under
// their retained names — counters and gauges routed by the family's own
// kind, labelled samples fanned out, histograms and undeclared names
// skipped.
func TestRegistrySource(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("jobs_total", "Jobs.").Add(7)
	reg.Gauge("depth", "Depth.").Store(3)
	reg.Gauge("unretained", "Not kept.").Store(9)
	reg.GaugeFunc("age_seconds", "Age.", func(e *Emitter) {
		e.Add(0.5, "worker", "w1")
		e.Add(1.5, "worker", "w2")
	})
	reg.HistogramFunc("lat_seconds", "Latency.", func(e *Emitter) { e.Hist(NewHistogram(TrialBuckets).Snapshot()) })

	got := reg.Source(map[string]string{
		"jobs_total": "jobs", "depth": "queue_depth", "age_seconds": "hb_age",
		"lat_seconds": "lat", "never_declared": "ghost",
	})()
	want := Samples{
		Counters: map[string]float64{"jobs": 7},
		Gauges:   map[string]float64{"queue_depth": 3, "hb_age/w1": 0.5, "hb_age/w2": 1.5},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Source() = %+v, want %+v", got, want)
	}
}

// TestNilRecorder: a nil *Recorder is the off switch — every method is a
// no-op, Register declares nothing — and TrialDone, the per-trial
// hot-path call, allocates nothing on or off.
func TestNilRecorder(t *testing.T) {
	var off *Recorder
	off.TrialDone("success", time.Millisecond)
	off.TrialAbnormal()
	off.TrialRetried()
	off.GoldenRun(time.Millisecond)
	off.CheckpointWrite()
	off.CampaignDone(time.Second)
	off.Register(NewRegistry())
	if race.Enabled {
		t.Skip("allocation counts differ under the race detector")
	}
	for name, rec := range map[string]*Recorder{"nil": off, "non-nil": NewRecorder()} {
		if avg := testing.AllocsPerRun(100, func() { rec.TrialDone("sdc", time.Millisecond) }); avg != 0 {
			t.Errorf("%s recorder: TrialDone allocates %.1f allocs/run, want 0", name, avg)
		}
	}
}
