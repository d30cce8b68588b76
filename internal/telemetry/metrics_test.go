package telemetry

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestRecorderCounts(t *testing.T) {
	r := NewRecorder()
	r.TrialDone("success", time.Millisecond)
	r.TrialDone("success", 2*time.Millisecond)
	r.TrialDone("sdc", time.Millisecond)
	r.TrialDone("failure", time.Millisecond)
	r.TrialDone("weird", time.Millisecond)
	r.TrialAbnormal()
	r.TrialRetried()
	r.TrialRetried()
	r.TrialReconverged()
	r.GoldenRun(10 * time.Millisecond)
	r.CheckpointWrite()
	r.CampaignDone(time.Second)

	s := r.Snapshot()
	if s.TrialSuccess != 2 || s.TrialSDC != 1 || s.TrialFailure != 1 || s.TrialOther != 1 {
		t.Fatalf("outcomes = %d/%d/%d/%d", s.TrialSuccess, s.TrialSDC, s.TrialFailure, s.TrialOther)
	}
	if got := s.TrialsTotal(); got != 5 {
		t.Fatalf("TrialsTotal = %d, want 5", got)
	}
	if s.TrialsAbnormal != 1 || s.TrialsRetried != 2 || s.Reconverged != 1 {
		t.Fatalf("abnormal/retried/reconverged = %d/%d/%d", s.TrialsAbnormal, s.TrialsRetried, s.Reconverged)
	}
	if s.GoldenRuns != 1 || s.CheckpointWrites != 1 || s.Campaigns != 1 {
		t.Fatalf("goldens/checkpoints/campaigns = %d/%d/%d",
			s.GoldenRuns, s.CheckpointWrites, s.Campaigns)
	}
	if s.TrialLatency.Count != 5 || s.CampaignDuration.Count != 1 {
		t.Fatalf("histogram counts = %d/%d", s.TrialLatency.Count, s.CampaignDuration.Count)
	}
	if s.Empty() {
		t.Fatal("populated snapshot reported Empty")
	}
	if !NewRecorder().Snapshot().Empty() {
		t.Fatal("fresh recorder not Empty")
	}
}

func TestHistogramBucketsAndMean(t *testing.T) {
	h := NewHistogram([]float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 5, 50, 500} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 5 {
		t.Fatalf("count = %d", s.Count)
	}
	// SearchFloat64s puts v on the first bound >= v: 0.5,1 -> le=1; 5 ->
	// le=10; 50 -> le=100; 500 -> overflow.
	want := []uint64{2, 1, 1, 1}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (all: %v)", i, s.Counts[i], w, s.Counts)
		}
	}
	if got := s.Mean(); got != (0.5+1+5+50+500)/5 {
		t.Fatalf("mean = %g", got)
	}
	if (HistSnapshot{}).Mean() != 0 {
		t.Fatal("empty mean not 0")
	}
}

func TestRecorderConcurrentUse(t *testing.T) {
	r := NewRecorder()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				r.TrialDone("success", time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if got := r.Snapshot().TrialsTotal(); got != 800 {
		t.Fatalf("TrialsTotal = %d, want 800", got)
	}
}

func TestWriteSummary(t *testing.T) {
	r := NewRecorder()
	r.TrialDone("success", time.Millisecond)
	r.TrialDone("sdc", time.Millisecond)
	r.TrialAbnormal()
	r.TrialReconverged()
	r.GoldenRun(5 * time.Millisecond)
	r.CheckpointWrite()
	r.CampaignDone(100 * time.Millisecond)

	var buf bytes.Buffer
	WriteSummary(&buf, r.Snapshot())
	out := buf.String()
	for _, want := range []string{
		"== telemetry ==",
		"campaigns:   1 executed",
		"trials:      2 (success 1, sdc 1, failure 0)",
		"1 reconverged",
		"abnormal:    1 trials abandoned",
		"goldens:     1 runs",
		"checkpoints: 1 writes",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("summary missing %q:\n%s", want, out)
		}
	}
}
