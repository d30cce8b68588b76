package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"resmod/internal/apps"
	"resmod/internal/fpe"
	"resmod/internal/simmpi"
	"resmod/internal/store"
)

// encoderRender is how GET /v1/predictions/{id} rendered a job before
// terminal documents were stored: a json.Encoder indenting by two spaces.
func encoderRender(t *testing.T, v any) []byte {
	t.Helper()
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// do sends one request and returns the status and the raw body.
func do(t *testing.T, method, url, body string, hdr map[string]string) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

// jobOf returns the server's job record for id.
func jobOf(t *testing.T, srv *Server, id string) *job {
	t.Helper()
	srv.mu.Lock()
	defer srv.mu.Unlock()
	j, ok := srv.jobs[id]
	if !ok {
		t.Fatalf("no job %s", id)
	}
	return j
}

// TestRenderersAgree: marshalBody, which renders stored documents, and
// writeJSON, which renders every other answer, produce the bytes of the
// encoder rendering, HTML escapes included.
func TestRenderersAgree(t *testing.T) {
	for _, v := range []any{
		Prediction{ID: "0123456789abcdef", Status: StatusFailed, Error: "a <b> & \"c\"",
			Request: PredictionRequest{App: "CG", Class: "S", Small: 2, Large: 8}},
		map[string]string{"error": "no prediction \"x\""},
	} {
		want := encoderRender(t, v)
		rec := httptest.NewRecorder()
		writeJSON(rec, http.StatusOK, v)
		if got := marshalBody(v); !bytes.Equal(got, want) || !bytes.Equal(rec.Body.Bytes(), want) {
			t.Errorf("marshalBody = %q, writeJSON = %q, want %q", got, rec.Body.Bytes(), want)
		}
	}
}

// TestTerminalDocumentByteIdentical: for a done job — computed here or
// born done from the store after a restart — the GET body, the POST-join
// body and an Idempotency-Key replay are the encoder rendering of the
// job's view, and a terminal document is built once.
func TestTerminalDocumentByteIdentical(t *testing.T) {
	dir := t.TempDir()
	for _, restarted := range []bool{false, true} {
		st, err := store.Open(store.Config{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		srv, hs := newTestServer(t, st, 1, 8)
		url := hs.URL + "/v1/predictions"
		code, v := postJSON(t, url, predBody)
		if code != http.StatusAccepted && code != http.StatusOK {
			t.Fatalf("restarted=%v: submit returned %d: %v", restarted, code, v)
		}
		if v["cached"] != restarted {
			t.Fatalf("restarted=%v: submit answered %v", restarted, v)
		}
		id := v["id"].(string)
		pollDone(t, hs.URL, id)

		j := jobOf(t, srv, id)
		want := encoderRender(t, j.view())
		hdr := map[string]string{IdempotencyKeyHeader: fmt.Sprint("render-once-", restarted)}
		bodies := map[string][]byte{}
		_, bodies["GET"] = do(t, http.MethodGet, url+"/"+id, "", nil)
		_, bodies["POST-join"] = do(t, http.MethodPost, url, predBody, nil)
		_, bodies["keyed POST"] = do(t, http.MethodPost, url, predBody, hdr)
		_, bodies["replay"] = do(t, http.MethodPost, url, predBody, hdr)
		for name, got := range bodies {
			if !bytes.Equal(got, want) {
				t.Errorf("restarted=%v: %s body\n%s\nwant the encoder rendering\n%s", restarted, name, got, want)
			}
		}
		if b1, b2 := j.body(), j.body(); &b1[0] != &b2[0] || &b1[0] != &j.doc[0] {
			t.Errorf("restarted=%v: a done job's document is rendered per request", restarted)
		}
	}
}

// holdApp is a registered app whose runs of class S or W first wait for
// that class's gate to close, then do a few operations and succeed: a
// prediction of it stays queued or running for as long as a test wants.
type holdApp struct{}

var (
	holdOnce  sync.Once
	holdGates map[string]chan struct{}
)

func (holdApp) Name() string               { return "HoldTest" }
func (holdApp) Classes() []string          { return []string{"S", "W"} }
func (holdApp) DefaultClass() string       { return "S" }
func (holdApp) MaxProcs(string) int        { return 2 }
func (holdApp) Verify(_, _ []float64) bool { return true }
func (holdApp) Run(fc *fpe.Ctx, _ *simmpi.Comm, class string, _ *apps.Steps) (apps.RankOutput, error) {
	<-holdGates[class]
	x := 1.0
	for i := 0; i < 64; i++ {
		x = fc.Add(fc.Mul(x, 0.5), 1)
	}
	return apps.RankOutput{State: []float64{x}, Check: []float64{x}}, nil
}

// TestDocumentFollowsJobState: a job's GET is queued, then running, then
// done, each the encoder rendering of the view at that moment; nothing is
// stored before the job is terminal.
func TestDocumentFollowsJobState(t *testing.T) {
	holdOnce.Do(func() { apps.Register(holdApp{}) })
	holdGates = map[string]chan struct{}{"S": make(chan struct{}), "W": make(chan struct{})}
	t.Cleanup(func() {
		for _, g := range holdGates {
			select {
			case <-g:
			default:
				close(g)
			}
		}
	})
	srv, hs := newTestServer(t, nil, 1, 4)
	url := hs.URL + "/v1/predictions"

	// The blocker holds the only worker until its gate closes.
	if code, v := postJSON(t, url, `{"app":"HoldTest","class":"W","small":1,"large":2}`); code != http.StatusAccepted {
		t.Fatalf("blocker submit returned %d: %v", code, v)
	}
	code, v := postJSON(t, url, `{"app":"HoldTest","class":"S","small":1,"large":2}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit returned %d: %v", code, v)
	}
	id := v["id"].(string)
	j := jobOf(t, srv, id)

	// check GETs the job until it reports status, which the gates then
	// hold, and compares the body with a rendering of the view.
	check := func(status string) {
		t.Helper()
		for deadline := time.Now().Add(time.Minute); ; time.Sleep(5 * time.Millisecond) {
			_, got := do(t, http.MethodGet, url+"/"+id, "", nil)
			var seen Prediction
			if err := json.Unmarshal(got, &seen); err != nil {
				t.Fatal(err)
			}
			if seen.Status != status {
				if time.Now().After(deadline) {
					t.Fatalf("job stayed %s, want %s", seen.Status, status)
				}
				continue
			}
			if want := encoderRender(t, j.view()); !bytes.Equal(got, want) {
				t.Fatalf("%s GET body\n%s\nwant\n%s", status, got, want)
			}
			j.mu.Lock()
			stored := j.doc != nil
			j.mu.Unlock()
			if terminal := status == StatusDone; stored != terminal {
				t.Fatalf("%s job: document stored = %v", status, stored)
			}
			return
		}
	}
	check(StatusQueued)
	close(holdGates["W"])
	check(StatusRunning)
	close(holdGates["S"])
	check(StatusDone)
}

// TestReplacedJobServesNewDocument: a resubmission replaces a failed job,
// and from then on GET serves the new job's document, not the stored one
// of the job it replaced.
func TestReplacedJobServesNewDocument(t *testing.T) {
	gateOnce.Do(func() { apps.Register(gateApp{}) })
	gate := make(chan struct{})
	close(gate)
	gateOpen.Store(&gate) // every run fails at once
	srv, hs := newTestServer(t, nil, 1, 4)
	url := hs.URL + "/v1/predictions"
	const body = `{"app":"GateTest","small":1,"large":2}`

	var id string
	for _, rid := range []string{"first-run", "second-run"} {
		code, _, v := postJSONHeader(t, url, body, map[string]string{requestIDHeader: rid})
		if code != http.StatusAccepted {
			t.Fatalf("%s: submit returned %d: %v", rid, code, v)
		}
		id = v["id"].(string)
		for deadline := time.Now().Add(time.Minute); !jobOf(t, srv, id).retryable(); time.Sleep(5 * time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%s: job did not fail", rid)
			}
		}
		_, got := do(t, http.MethodGet, url+"/"+id, "", nil)
		var view Prediction
		if err := json.Unmarshal(got, &view); err != nil {
			t.Fatal(err)
		}
		if view.Status != StatusFailed || view.RequestID != rid {
			t.Fatalf("%s: GET serves status %s of request %s", rid, view.Status, view.RequestID)
		}
		if want := encoderRender(t, jobOf(t, srv, id).view()); !bytes.Equal(got, want) {
			t.Fatalf("%s: GET body\n%s\nwant\n%s", rid, got, want)
		}
	}
}

// TestConcurrentStoredFirstPosts: on a restarted server, concurrent first
// POSTs of one stored prediction read the store outside the lock and
// still create exactly one job, which every answer shares.
func TestConcurrentStoredFirstPosts(t *testing.T) {
	dir := t.TempDir()
	st1, err := store.Open(store.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	_, hs1 := newTestServer(t, st1, 1, 8)
	code, v := postJSON(t, hs1.URL+"/v1/predictions", predBody)
	if code != http.StatusAccepted {
		t.Fatalf("submit returned %d: %v", code, v)
	}
	pollDone(t, hs1.URL, v["id"].(string))

	st2, err := store.Open(store.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	srv, hs2 := newTestServer(t, st2, 1, 8)
	const n = 12
	bodies := make([][]byte, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var code int
			code, bodies[i] = do(t, http.MethodPost, hs2.URL+"/v1/predictions", predBody, nil)
			if code != http.StatusOK {
				t.Errorf("submit %d returned %d: %s", i, code, bodies[i])
			}
		}(i)
	}
	wg.Wait()
	for i, b := range bodies[1:] {
		if !bytes.Equal(b, bodies[0]) {
			t.Fatalf("answer %d differs from answer 0:\n%s\n%s", i+1, b, bodies[0])
		}
	}
	srv.mu.Lock()
	jobs := len(srv.jobs)
	srv.mu.Unlock()
	if hits, joined := srv.metrics.cacheHits.Load(), srv.metrics.joined.Load(); jobs != 1 || hits != 1 || joined != n-1 {
		t.Fatalf("%d jobs, %d cache hits, %d joins; want 1, 1 and %d", jobs, hits, joined, n-1)
	}
}

// TestStoredBeforeDone: a job's row is in the store by the time its
// terminal event arrives, so a client that sees done and restarts the
// server over the same store gets the cached row, not a new computation.
func TestStoredBeforeDone(t *testing.T) {
	st, err := store.Open(store.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	srv, hs := newTestServer(t, st, 1, 4)
	code, v := postJSON(t, hs.URL+"/v1/predictions", predBody)
	if code != http.StatusAccepted {
		t.Fatalf("submit returned %d: %v", code, v)
	}
	j := jobOf(t, srv, v["id"].(string))
	select {
	case <-j.done:
	case <-time.After(2 * time.Minute):
		t.Fatal("job did not finish")
	}
	if _, ok := st.Get(j.key); !ok {
		t.Fatalf("job %s is %s but its row is not in the store", j.id, j.view().Status)
	}
}
