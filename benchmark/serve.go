package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"resmod/internal/exper"
	"resmod/internal/server"
	"resmod/internal/store"
	"resmod/internal/telemetry"
)

// Frozen sizes of the serve workloads (calibrated with the engine sizes;
// see README.md).
const (
	// warmTrialsPerCampaign is the server's trial count while serve_warm
	// fills its store during set-up; the timed section never computes.
	warmTrialsPerCampaign = 2
	// warmBlock is the number of requests in one serve_warm pass.
	warmBlock = 10000
	// coldTrialsPerCampaign is the server's trial count on serve_cold.
	coldTrialsPerCampaign = 8
	// coldWorkers is serve_cold's scheduler pool size.
	coldWorkers = 2
)

// scalePairs are the (small, large) pairs serve workloads ask about; the
// six paper apps times these are the distinct predictions.
var (
	warmPairs = [][2]int{{2, 4}, {2, 8}, {4, 8}, {2, 16}}
	coldPairs = [][2]int{{2, 8}, {4, 8}}
)

// clients is the closed-loop client count: callers of a prediction
// service wait for their reply, and the load comes from this one process
// with no more client threads than the host has cores.
func clients() int { return min(2, runtime.NumCPU()) }

// predictionBodies returns the POST bodies of apps × pairs in a fixed
// order; the seeded sequences index into it.
func predictionBodies(pairs [][2]int) []string {
	var out []string
	for _, app := range exper.PaperBenchmarks {
		for _, p := range pairs {
			out = append(out, fmt.Sprintf(`{"app":%q,"small":%d,"large":%d}`, app, p[0], p[1]))
		}
	}
	return out
}

// service is one running prediction server: the program's server.Server
// over a store directory, behind a loopback listener.
type service struct {
	st   *store.Store
	srv  *server.Server
	hs   *http.Server
	base string
	done chan struct{}
}

func startService(dir string, cfg server.Config) (*service, error) {
	st, err := store.Open(store.Config{Dir: dir})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	cfg.Store = st
	s := &service{st: st, srv: server.New(cfg), base: "http://" + ln.Addr().String(), done: make(chan struct{})}
	s.hs = &http.Server{Handler: s.srv.Handler()}
	go func() {
		defer close(s.done)
		_ = s.hs.Serve(ln) // returns ErrServerClosed at stop
	}()
	return s, nil
}

// stop closes the listener and every connection, drains the scheduler and
// waits for the serve goroutine.
func (s *service) stop() {
	_ = s.hs.Close()
	<-s.done
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = s.srv.Close(ctx)
}

// newHTTPClient keeps one connection alive per client goroutine.
func newHTTPClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients()}}
}

// jobView is the part of the API's prediction document the checks read.
type jobView struct {
	ID        string          `json:"id"`
	Status    string          `json:"status"`
	Result    json.RawMessage `json:"result"`
	ElapsedMS int64           `json:"elapsed_ms"`
}

// sameResult compares two prediction results byte for byte once
// whitespace is out of the way: the API indents documents, the SSE stream
// does not.
func sameResult(a, b json.RawMessage) bool {
	var ca, cb bytes.Buffer
	if json.Compact(&ca, a) != nil || json.Compact(&cb, b) != nil {
		return false
	}
	return ca.Len() > 0 && bytes.Equal(ca.Bytes(), cb.Bytes())
}

// do sends one request and returns status and body.
func do(c *http.Client, method, url, body string) (int, []byte, error) {
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// wireClient is one keep-alive HTTP/1.1 connection driven from a single
// goroutine: the request is written and the reply read in place, without
// the reader and writer goroutines net/http's Transport puts behind every
// connection.  serve_warm's timed section uses it so that a request costs
// the client one blocking read and the measurement is the server's.
type wireClient struct {
	conn net.Conn
	br   *bufio.Reader
	host string
}

func dialWire(base string) (*wireClient, error) {
	host := strings.TrimPrefix(base, "http://")
	conn, err := net.Dial("tcp", host)
	if err != nil {
		return nil, err
	}
	return &wireClient{conn: conn, br: bufio.NewReader(conn), host: host}, nil
}

// do sends one request and returns status and body.
func (c *wireClient) do(method, path, body string) (int, []byte, error) {
	req := method + " " + path + " HTTP/1.1\r\nHost: " + c.host + "\r\n"
	if body != "" {
		req += "Content-Type: application/json\r\nContent-Length: " + strconv.Itoa(len(body)) + "\r\n"
	}
	if _, err := io.WriteString(c.conn, req+"\r\n"+body); err != nil {
		return 0, nil, err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// followEvents reads a job's SSE stream to its terminal "done" event and
// returns the final view and the number of events seen.
func followEvents(c *http.Client, base, id string) (jobView, int, error) {
	var v jobView
	resp, err := c.Get(base + "/v1/predictions/" + id + "/events")
	if err != nil {
		return v, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return v, 0, fmt.Errorf("events: status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	events, terminal := 0, false
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			events++
			terminal = line == "event: done"
		case terminal && strings.HasPrefix(line, "data: "):
			return v, events, json.Unmarshal([]byte(line[len("data: "):]), &v)
		}
	}
	return v, events, errors.New("events: stream ended before the done event")
}

// ---- serve_warm -----------------------------------------------------------

// request kinds of the serve_warm mix.
const (
	reqPostHit = iota
	reqGetJob
	reqStatus
	reqMetrics
	reqSeries
	numReqKinds
)

var (
	reqKindNames = [numReqKinds]string{"post_hit", "get_job", "status", "metrics_scrape", "series"}
	// warmMix is the traffic mix in percent.
	warmMix = [numReqKinds]int{45, 40, 5, 5, 5}
)

// warmRequest is one generated request: its kind and, for the two
// prediction kinds, which of the K stored predictions it asks for.
type warmRequest struct{ kind, key int }

// warmSequence generates n requests over k stored predictions; it is a
// pure function of its arguments.
func warmSequence(seed uint64, n, k int) []warmRequest {
	rng := splitmix(seed)
	out := make([]warmRequest, n)
	for i := range out {
		roll, kind := rng.intn(100), 0
		for roll >= warmMix[kind] {
			roll -= warmMix[kind]
			kind++
		}
		out[i] = warmRequest{kind: kind, key: rng.intn(k)}
	}
	return out
}

// warmInstance is serve_warm.
type warmInstance struct {
	rc      runConfig
	dir     string
	svc     *service
	client  *http.Client
	bodies  []string
	ids     []string
	results []json.RawMessage
	// want holds, per prediction kind and key, the reply recorded at
	// set-up (nil for the kinds whose reply changes from call to call).
	want [numReqKinds][][]byte
	// conns are the timed section's keep-alive connections, one per
	// closed-loop client.
	conns []*wireClient
}

func (w *warmInstance) Setup(ctx context.Context) error {
	dir, err := os.MkdirTemp(w.rc.outDir, "warm-*")
	if err != nil {
		return err
	}
	w.dir = dir
	w.client = newHTTPClient()
	w.conns = make([]*wireClient, clients())
	w.bodies = predictionBodies(warmPairs)
	cfg := server.Config{Trials: warmTrialsPerCampaign, Seed: w.rc.seed}

	// Fill the store through the API, then restart over the same
	// directory: the timed section talks to a process that has computed
	// nothing itself.
	fill, err := startService(dir, cfg)
	if err != nil {
		return err
	}
	w.ids = make([]string, len(w.bodies))
	w.results = make([]json.RawMessage, len(w.bodies))
	for i, body := range w.bodies {
		code, b, err := do(w.client, "POST", fill.base+"/v1/predictions", body)
		var v jobView
		if err == nil && code != http.StatusAccepted && code != http.StatusOK {
			err = fmt.Errorf("status %d: %s", code, bytes.TrimSpace(b))
		}
		if err == nil {
			err = json.Unmarshal(b, &v)
		}
		if err != nil {
			fill.stop()
			return fmt.Errorf("filling the store: %w", err)
		}
		w.ids[i] = v.ID
	}
	for i, id := range w.ids {
		v, _, err := followEvents(w.client, fill.base, id)
		if err == nil && v.Status != server.StatusDone {
			err = fmt.Errorf("job %s ended %s", id, v.Status)
		}
		if err != nil {
			fill.stop()
			return fmt.Errorf("filling the store: %w", err)
		}
		w.results[i] = v.Result
	}
	fill.stop()

	if w.svc, err = startService(dir, cfg); err != nil {
		return err
	}
	// First touch of every key: the restarted server reads it from disk
	// and learns its job id, after which GETs of that id answer.  The
	// second touch records the whole reply — a finished job's document no
	// longer changes — once its result is seen to be the one the filling
	// server computed, so the timed section checks a reply by comparing
	// bytes and the client stays cheap beside the server it measures.
	for i := range w.conns {
		if w.conns[i], err = dialWire(w.svc.base); err != nil {
			return err
		}
	}
	for _, kind := range []int{reqPostHit, reqPostHit, reqGetJob} {
		w.want[kind] = make([][]byte, len(w.bodies))
		for key := range w.bodies {
			code, b, err := w.fetch(w.conns[0], kind, key)
			var v jobView
			if err == nil && code != http.StatusOK {
				err = fmt.Errorf("status %d", code)
			}
			if err == nil {
				err = json.Unmarshal(b, &v)
			}
			if err == nil && (v.Status != server.StatusDone || !sameResult(v.Result, w.results[key])) {
				err = errors.New("result differs from the one the filling server computed")
			}
			if err != nil {
				return fmt.Errorf("first touch, %s key %d: %w", reqKindNames[kind], key, err)
			}
			w.want[kind][key] = b
		}
	}
	return nil
}

// fetch sends one request of the mix.
func (w *warmInstance) fetch(c *wireClient, kind, key int) (int, []byte, error) {
	switch kind {
	case reqPostHit:
		return c.do("POST", "/v1/predictions", w.bodies[key])
	case reqGetJob:
		return c.do("GET", "/v1/predictions/"+w.ids[key], "")
	case reqStatus:
		return c.do("GET", "/v1/status", "")
	case reqMetrics:
		return c.do("GET", "/metrics", "")
	default:
		return c.do("GET", "/v1/series?name=queue_depth&since=10m&max=60", "")
	}
}

// check sends one request of the mix and returns "" when the reply is a
// 200 carrying, for a prediction, exactly the document recorded at set-up.
func (w *warmInstance) check(c *wireClient, kind, key int) string {
	code, b, err := w.fetch(c, kind, key)
	switch {
	case err != nil:
		return err.Error()
	case code != http.StatusOK:
		return fmt.Sprintf("%s: status %d", reqKindNames[kind], code)
	case len(b) == 0:
		return reqKindNames[kind] + ": empty reply"
	case w.want[kind] != nil && !bytes.Equal(b, w.want[kind][key]):
		return fmt.Sprintf("%s key %d: reply differs from the one recorded at set-up", reqKindNames[kind], key)
	}
	return ""
}

func (w *warmInstance) Pass(ctx context.Context, tel *benchTel, seed uint64) (passResult, error) {
	seq := warmSequence(seed, w.rc.scale(warmBlock), len(w.bodies))
	n := len(w.conns)
	lat := make([]time.Duration, len(seq))
	bad := make([]string, n)
	fails := make([]int, n)
	var wg sync.WaitGroup
	start, cpu0 := time.Now(), cpuTime()
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(seq); i += n {
				r := seq[i]
				var span *telemetry.Span
				if tel != nil { // an untraced request pays for no span attributes
					_, span = tel.span(ctx, "bench_http", telemetry.String("kind", reqKindNames[r.kind]), telemetry.Int("request", i))
				}
				t0 := time.Now()
				msg := w.check(w.conns[c], r.kind, r.key)
				lat[i] = time.Since(t0)
				span.End()
				if msg != "" {
					fails[c]++
					bad[c] = msg
				}
			}
		}(c)
	}
	wg.Wait()
	res := passResult{wall: time.Since(start), cpu: cpuTime() - cpu0, ops: len(seq), calls: lat}
	for c := range fails {
		if fails[c] > 0 {
			res.failed += fails[c]
			fmt.Fprintf(stderr, "check failed (%d requests), last: %s\n", fails[c], bad[c])
		}
	}
	if tel != nil {
		res.layer = w.layer(seq, lat)
	}
	return res, nil
}

// layer reduces a traced pass to its per-layer observations: the
// client-side latency of each endpoint, the tail, and the store's counters.
func (w *warmInstance) layer(seq []warmRequest, lat []time.Duration) map[string]float64 {
	m := map[string]float64{}
	byKind := make([][]float64, numReqKinds)
	all := make([]float64, len(lat))
	for i, d := range lat {
		us := float64(d) / float64(time.Microsecond)
		byKind[seq[i].kind] = append(byKind[seq[i].kind], us)
		all[i] = us / 1000
	}
	for k, name := range reqKindNames {
		m["server."+name+"_p50_us"] = median(byKind[k])
	}
	m["server.latency_p95_ms"] = percentile(all, 0.95)
	m["server.latency_p99_ms"] = percentile(all, 0.99)
	storeCounters(m, w.svc)
	return m
}

func (w *warmInstance) Close() {
	for _, c := range w.conns {
		if c != nil {
			_ = c.conn.Close()
		}
	}
	if w.svc != nil {
		w.svc.stop()
		w.svc = nil
	}
	if w.client != nil {
		w.client.CloseIdleConnections()
	}
	if w.dir != "" {
		_ = os.RemoveAll(w.dir)
	}
}

func storeCounters(m map[string]float64, svc *service) {
	st := svc.st.Stats()
	m["store.hits"] = float64(st.Hits)
	m["store.mem_hits"] = float64(st.MemHits)
	m["store.misses"] = float64(st.Misses)
	m["store.puts"] = float64(st.Puts)
	m["store.evictions"] = float64(st.Evictions)
	if st.Hits > 0 {
		m["store.mem_hit_ratio"] = float64(st.MemHits) / float64(st.Hits)
	}
}

// ---- serve_cold -----------------------------------------------------------

// coldOrder is the seeded order in which serve_cold submits its J
// distinct jobs: a Fisher–Yates shuffle driven by the seed alone.
func coldOrder(seed uint64, j int) []int {
	rng := splitmix(seed)
	order := make([]int, j)
	for i := range order {
		order[i] = i
	}
	for i := j - 1; i > 0; i-- {
		k := rng.intn(i + 1)
		order[i], order[k] = order[k], order[i]
	}
	return order
}

// coldInstance is serve_cold.  Every pass gets a fresh server over an
// empty store; the last one stays up until Close so its counters can be
// read.
type coldInstance struct {
	rc     runConfig
	client *http.Client
	bodies []string
	dir    string
	svc    *service
}

func (c *coldInstance) Setup(ctx context.Context) error {
	c.client = newHTTPClient()
	c.bodies = predictionBodies(coldPairs)
	// The warm-up is a small cold pass of its own: one job per app.
	_, err := c.pass(ctx, nil, c.rc.seed, warmTrials, coldOrder(c.rc.seed, len(c.bodies))[:len(exper.PaperBenchmarks)])
	return err
}

func (c *coldInstance) Pass(ctx context.Context, tel *benchTel, seed uint64) (passResult, error) {
	order := coldOrder(seed, len(c.bodies))
	if c.rc.quick {
		order = order[:len(exper.PaperBenchmarks)]
	}
	return c.pass(ctx, tel, seed, c.rc.scale(coldTrialsPerCampaign), order)
}

func (c *coldInstance) reset() {
	if c.svc != nil {
		c.svc.stop()
		c.svc = nil
	}
	if c.dir != "" {
		_ = os.RemoveAll(c.dir)
		c.dir = ""
	}
}

// coldJob is what one job's round trip measured.
type coldJob struct {
	submit, latency time.Duration
	elapsedMS       int64
	events          int
	bad             string
	shed, errors    int // 429 and 5xx replies
}

func (c *coldInstance) pass(ctx context.Context, tel *benchTel, seed uint64, trials int, order []int) (passResult, error) {
	c.reset()
	dir, err := os.MkdirTemp(c.rc.outDir, "cold-*")
	if err != nil {
		return passResult{}, err
	}
	c.dir = dir
	cfg := server.Config{Trials: trials, Seed: seed, Workers: coldWorkers}
	if tel != nil {
		cfg.Tracer = tel.tracer
	}
	if c.svc, err = startService(dir, cfg); err != nil {
		return passResult{}, err
	}

	n := clients()
	jobs := make([]coldJob, len(order))
	var wg sync.WaitGroup
	start, cpu0 := time.Now(), cpuTime()
	for cl := 0; cl < n; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			for i := cl; i < len(order); i += n {
				_, span := tel.span(ctx, "bench_http", telemetry.String("kind", "job"), telemetry.Int("request", i))
				jobs[i] = c.roundTrip(c.bodies[order[i]])
				span.End()
			}
		}(cl)
	}
	wg.Wait()
	res := passResult{wall: time.Since(start), cpu: cpuTime() - cpu0, ops: len(order), layer: map[string]float64{}}

	var submit, wait, compute []float64
	for _, j := range jobs {
		res.calls = append(res.calls, j.latency)
		if j.bad != "" {
			res.failed++
			fmt.Fprintf(stderr, "check failed: %s\n", j.bad)
		}
		submit = append(submit, float64(j.submit)/float64(time.Microsecond))
		compute = append(compute, float64(j.elapsedMS))
		wait = append(wait, float64(j.latency)/float64(time.Millisecond)-float64(j.elapsedMS))
		res.layer["server.sse_events"] += float64(j.events)
		res.layer["server.shed_429"] += float64(j.shed)
		res.layer["server.http_5xx"] += float64(j.errors)
	}
	res.layer["server.submit_p50_us"] = median(submit)
	res.layer["server.queue_wait_p50_ms"] = median(wait)
	res.layer["server.compute_p50_ms"] = median(compute)
	c.engineCounters(res.layer)
	storeCounters(res.layer, c.svc)
	return res, nil
}

// roundTrip is one client's handling of one job: POST → 202 → follow the
// SSE stream to the terminal event → GET the result → re-POST the same
// body and require the finished job back with an identical result.
func (c *coldInstance) roundTrip(body string) (j coldJob) {
	note := func(code int) {
		switch {
		case code == http.StatusTooManyRequests:
			j.shed++
		case code >= 500:
			j.errors++
		}
	}
	base := c.svc.base
	t0 := time.Now()
	code, b, err := do(c.client, "POST", base+"/v1/predictions", body)
	j.submit = time.Since(t0)
	note(code)
	var v jobView
	if err == nil && code != http.StatusAccepted {
		err = fmt.Errorf("submit %s: status %d, want 202", body, code)
	}
	if err == nil {
		err = json.Unmarshal(b, &v)
	}
	if err != nil {
		j.bad = err.Error()
		return j
	}
	final, events, err := followEvents(c.client, base, v.ID)
	j.latency = time.Since(t0)
	j.events = events
	if err == nil && final.Status != server.StatusDone {
		err = fmt.Errorf("job %s ended %q", v.ID, final.Status)
	}
	if err != nil {
		j.bad = err.Error()
		return j
	}
	j.elapsedMS = final.ElapsedMS
	for _, again := range [][2]string{{"GET", base + "/v1/predictions/" + v.ID}, {"POST", base + "/v1/predictions"}} {
		reqBody := ""
		if again[0] == "POST" {
			reqBody = body
		}
		code, b, err := do(c.client, again[0], again[1], reqBody)
		note(code)
		var got jobView
		if err == nil && code != http.StatusOK {
			err = fmt.Errorf("%s of finished job %s: status %d", again[0], v.ID, code)
		}
		if err == nil {
			err = json.Unmarshal(b, &got)
		}
		if err == nil && (got.Status != server.StatusDone || !sameResult(got.Result, final.Result)) {
			err = fmt.Errorf("%s of finished job %s: result differs from the terminal event's", again[0], v.ID)
		}
		if err != nil {
			j.bad = err.Error()
			return j
		}
	}
	return j
}

// engineCounters reads the engine's exact counts off the server's own
// /metrics page — the only place a served process publishes them.
func (c *coldInstance) engineCounters(m map[string]float64) {
	_, b, err := do(c.client, "GET", c.svc.base+"/metrics", "")
	if err != nil {
		return
	}
	want := map[string]string{
		"resmod_campaigns_executed_total": "faultsim.campaigns_executed",
		"resmod_campaign_trials_total":    "faultsim.trials_executed",
		"resmod_trial_abnormal_total":     "faultsim.abnormal_trials",
		"resmod_trial_retried_total":      "faultsim.retried_trials",
	}
	for _, line := range strings.Split(string(b), "\n") {
		name, val, ok := strings.Cut(line, " ")
		if key, hit := want[name]; ok && hit {
			if f, err := strconv.ParseFloat(val, 64); err == nil {
				m[key] = f
			}
		}
	}
}

func (c *coldInstance) Close() {
	c.reset()
	if c.client != nil {
		c.client.CloseIdleConnections()
	}
}
