package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"resmod/internal/telemetry"
)

// promFamily is one parsed metric family from /metrics.
type promFamily struct {
	help    string
	typ     string
	samples map[string]float64 // label-set string ("" for unlabeled) -> value
}

// parseProm is a minimal Prometheus text-exposition parser: enough to
// verify HELP/TYPE metadata, labeled samples, and histogram series.
// Suffixed histogram samples (_bucket, _sum, _count) are attributed to
// their base family.
func parseProm(t *testing.T, text string) map[string]*promFamily {
	t.Helper()
	fams := make(map[string]*promFamily)
	family := func(name string) *promFamily {
		f := fams[name]
		if f == nil {
			f = &promFamily{samples: make(map[string]float64)}
			fams[name] = f
		}
		return f
	}
	for ln, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, help, found := strings.Cut(rest, " ")
			if !found {
				t.Fatalf("line %d: malformed HELP: %q", ln+1, line)
			}
			family(name).help = help
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, typ, found := strings.Cut(rest, " ")
			if !found {
				t.Fatalf("line %d: malformed TYPE: %q", ln+1, line)
			}
			family(name).typ = typ
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		// sample: name{labels} value | name value
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("line %d: malformed sample: %q", ln+1, line)
		}
		key, valStr := line[:sp], line[sp+1:]
		val, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			t.Fatalf("line %d: bad value in %q: %v", ln+1, line, err)
		}
		name, labels := key, ""
		if i := strings.IndexByte(key, '{'); i >= 0 {
			if !strings.HasSuffix(key, "}") {
				t.Fatalf("line %d: unbalanced labels: %q", ln+1, line)
			}
			name, labels = key[:i], key[i+1:len(key)-1]
		}
		base := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			trimmed := strings.TrimSuffix(name, suffix)
			if trimmed != name && fams[trimmed] != nil && fams[trimmed].typ == "histogram" {
				base = trimmed
				labels = strings.TrimSuffix(suffix, "_")[1:] + "|" + labels
				break
			}
		}
		family(base).samples[labels] = val
	}
	return fams
}

// fetchMetrics GETs /metrics and parses it.
func fetchMetrics(t *testing.T, base string) (string, map[string]*promFamily) {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body), parseProm(t, string(body))
}

// histBuckets returns a histogram family's (le, cumulative) pairs in
// ascending le order, plus its count and +Inf bucket.
func histBuckets(t *testing.T, f *promFamily) (les []float64, cums []float64, inf, count float64) {
	t.Helper()
	count = f.samples["count|"]
	for labels, v := range f.samples {
		rest, ok := strings.CutPrefix(labels, "bucket|")
		if !ok {
			continue
		}
		le := strings.TrimSuffix(strings.TrimPrefix(rest, `le="`), `"`)
		if le == "+Inf" {
			inf = v
			continue
		}
		b, err := strconv.ParseFloat(le, 64)
		if err != nil {
			t.Fatalf("bad le %q: %v", le, err)
		}
		les = append(les, b)
		cums = append(cums, v)
	}
	sort.Sort(&leSorter{les, cums})
	return les, cums, inf, count
}

type leSorter struct {
	les  []float64
	cums []float64
}

func (s *leSorter) Len() int           { return len(s.les) }
func (s *leSorter) Less(i, j int) bool { return s.les[i] < s.les[j] }
func (s *leSorter) Swap(i, j int) {
	s.les[i], s.les[j] = s.les[j], s.les[i]
	s.cums[i], s.cums[j] = s.cums[j], s.cums[i]
}

func TestTrialOutcomeSumMatchesTotalAndHistogramsMonotone(t *testing.T) {
	_, hs := newTestServer(t, nil, 1, 4)
	code, v := postJSON(t, hs.URL+"/v1/predictions", `{"app":"PENNANT","small":2,"large":4}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit returned %d: %v", code, v)
	}
	pollDone(t, hs.URL, v["id"].(string))

	text, fams := fetchMetrics(t, hs.URL)

	trialTotal := fams["resmod_trial_total"]
	var outcomeSum float64
	for _, outcome := range []string{"success", "sdc", "failure", "other"} {
		val, ok := trialTotal.samples[fmt.Sprintf("outcome=%q", outcome)]
		if !ok {
			t.Fatalf("resmod_trial_total missing outcome %q:\n%s", outcome, text)
		}
		outcomeSum += val
	}
	total := fams["resmod_campaign_trials_total"].samples[""]
	if total == 0 {
		t.Fatalf("resmod_campaign_trials_total is 0 after a computed prediction:\n%s", text)
	}
	if outcomeSum != total {
		t.Fatalf("outcome sum %g != resmod_campaign_trials_total %g:\n%s",
			outcomeSum, total, text)
	}
	if goldens := fams["resmod_golden_runs_total"].samples[""]; goldens == 0 {
		t.Fatalf("resmod_golden_runs_total is 0 after a computed prediction:\n%s", text)
	}

	for _, histName := range []string{
		"resmod_prediction_duration_seconds",
		"resmod_trial_duration_seconds",
		"resmod_campaign_duration_seconds",
	} {
		les, cums, inf, count := histBuckets(t, fams[histName])
		if len(les) == 0 {
			t.Fatalf("%s has no buckets:\n%s", histName, text)
		}
		for i := 1; i < len(cums); i++ {
			if cums[i] < cums[i-1] {
				t.Fatalf("%s buckets not monotone at le=%g: %v", histName, les[i], cums)
			}
		}
		if inf < cums[len(cums)-1] {
			t.Fatalf("%s +Inf bucket %g below last bound %g", histName, inf, cums[len(cums)-1])
		}
		if inf != count {
			t.Fatalf("%s +Inf bucket %g != count %g", histName, inf, count)
		}
	}
	// The trial-latency histogram must have observed every executed trial.
	if _, _, _, count := histBuckets(t, fams["resmod_trial_duration_seconds"]); count != total {
		t.Fatalf("resmod_trial_duration_seconds count %g != trials total %g", count, total)
	}
}

func TestHTTPRequestCounterLabels(t *testing.T) {
	_, hs := newTestServer(t, nil, 1, 4)
	if _, err := http.Get(hs.URL + "/healthz"); err != nil {
		t.Fatal(err)
	}
	text, fams := fetchMetrics(t, hs.URL)
	want := `code="200",method="GET",path="/healthz"`
	var found bool
	for labels := range fams["resmod_http_requests_total"].samples {
		parts := strings.Split(labels, ",")
		sort.Strings(parts)
		if strings.Join(parts, ",") == want {
			found = true
		}
	}
	if !found {
		t.Fatalf("no healthz request sample with labels %s:\n%s", want, text)
	}
}

func TestRequestIDEchoAndJobRecord(t *testing.T) {
	_, hs := newTestServer(t, nil, 1, 4)

	// Server-generated: a response always carries some X-Request-ID.
	resp, err := http.Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.Header.Get("X-Request-ID") == "" {
		t.Fatal("no generated X-Request-ID on response")
	}

	// Client-supplied: echoed verbatim, and stamped on the job record.
	req, _ := http.NewRequest(http.MethodPost, hs.URL+"/v1/predictions",
		strings.NewReader(`{"app":"PENNANT","small":2,"large":4}`))
	req.Header.Set("X-Request-ID", "rid-12345")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); got != "rid-12345" {
		t.Fatalf("echoed request ID = %q, want rid-12345", got)
	}
	var v map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	if got := v["request_id"]; got != "rid-12345" {
		t.Fatalf("job record request_id = %v, want rid-12345", got)
	}
	done := pollDone(t, hs.URL, v["id"].(string))
	if got := done["request_id"]; got != "rid-12345" {
		t.Fatalf("finished job request_id = %v, want rid-12345", got)
	}
}

func TestAccessLog(t *testing.T) {
	var buf bytes.Buffer
	srv := New(Config{Trials: 10, Seed: 42, Workers: 1, Queue: 4,
		Logger: telemetry.NewLogger(&buf, slog.LevelInfo)})
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		hs.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = srv.Close(ctx)
	})
	req, _ := http.NewRequest(http.MethodGet, hs.URL+"/healthz", nil)
	req.Header.Set("X-Request-ID", "rid-log")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	out := buf.String()
	for _, want := range []string{
		"http request", "method=GET", "route=/healthz", "status=200", "request_id=rid-log",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("access log missing %q:\n%s", want, out)
		}
	}
	if !strings.Contains(out, "bytes=") || !strings.Contains(out, "dur=") {
		t.Fatalf("access log missing bytes/dur:\n%s", out)
	}
}

func TestTraceEndpoint(t *testing.T) {
	_, hs := newTestServer(t, nil, 1, 4)
	code, v := postJSON(t, hs.URL+"/v1/predictions", `{"app":"PENNANT","small":2,"large":4}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit returned %d: %v", code, v)
	}
	id := v["id"].(string)
	pollDone(t, hs.URL, id)

	resp, err := http.Get(hs.URL + "/v1/predictions/" + id + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace returned %d", resp.StatusCode)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("invalid trace JSON: %v", err)
	}
	names := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			t.Fatalf("event %s ph = %q", ev.Name, ev.Ph)
		}
		names[ev.Name] = true
	}
	for _, want := range []string{"job", "predict", "golden", "campaign"} {
		if !names[want] {
			t.Fatalf("trace missing %q span, got %v", want, names)
		}
	}

	resp, err = http.Get(hs.URL + "/v1/predictions/nope/trace")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown-id trace returned %d, want 404", resp.StatusCode)
	}
}
