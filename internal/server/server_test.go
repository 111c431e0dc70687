package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"smartbadge/internal/fleet"
	"smartbadge/internal/parallel"
)

// smallFleetBody is a real-engine request cheap enough for tests: ExpAvg
// badges need no threshold characterisation.
const smallFleetBody = `{"badges":3,"seed":7,"apps":["mp3"],"policies":["expavg"],"dpms":["none"]}`

func post(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

func postRecorder(s *Server, path, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	s.Handler().ServeHTTP(rec, req)
	return rec
}

// waitFor polls until cond holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// blockingEngine returns a fleet runner that parks until release is closed
// (or the context dies), standing in for a long batch without burning CPU.
func blockingEngine(release <-chan struct{}) func(ctx context.Context, cfg fleet.Config) (*fleet.Report, error) {
	return func(ctx context.Context, cfg fleet.Config) (*fleet.Report, error) {
		select {
		case <-release:
			return &fleet.Report{Badges: []fleet.BadgeResult{{Spec: cfg.SpecFor(0)}}}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// TestDeadlineExceededMidBatch: a request whose deadline expires while the
// engine is mid-batch must return promptly with a cancelled status, well
// before the batch would have finished.
func TestDeadlineExceededMidBatch(t *testing.T) {
	s := New(Config{})
	s.runFleet = blockingEngine(make(chan struct{})) // never released: only ctx can end it
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	start := time.Now()
	resp, body := post(t, ts.URL+"/v1/fleet", `{"badges":4,"seed":1,"timeout_ms":100}`)
	elapsed := time.Since(start)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	var e errorResponse
	if err := json.Unmarshal(body, &e); err != nil || e.Status != "cancelled" {
		t.Fatalf("body = %s, want status cancelled", body)
	}
	if elapsed > 2*time.Second {
		t.Errorf("cancelled response took %v, want prompt return after the 100 ms deadline", elapsed)
	}
	if s.cCanceled.Value() == 0 {
		t.Error("cancelled counter not incremented")
	}
}

// TestDeadlineExceededRealEngine drives the acceptance criterion end to end:
// a 200 ms deadline against a batch that takes multiple seconds returns
// promptly because the shard loops abort between badges.
func TestDeadlineExceededRealEngine(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real batch")
	}
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	start := time.Now()
	resp, body := post(t, ts.URL+"/v1/fleet",
		`{"badges":512,"seed":7,"apps":["mp3"],"policies":["expavg"],"dpms":["none"],"timeout_ms":200}`)
	elapsed := time.Since(start)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	if !bytes.Contains(body, []byte(`"cancelled"`)) {
		t.Fatalf("body = %s", body)
	}
	// Abort latency is the deadline plus at most a handful of in-flight
	// badges (each a few ms); seconds would mean cancellation only happened
	// at batch end.
	if elapsed > 3*time.Second {
		t.Errorf("cancelled response took %v, want deadline + one badge, not the whole batch", elapsed)
	}
}

// TestQueueFullSheds: with one execution slot and a one-deep queue, a third
// concurrent request is shed with 429 + Retry-After while the first two
// eventually succeed.
func TestQueueFullSheds(t *testing.T) {
	release := make(chan struct{})
	s := New(Config{MaxInFlight: 1, QueueDepth: 1, RetryAfterS: 7})
	s.runFleet = blockingEngine(release)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	type result struct {
		code int
		body []byte
	}
	results := make(chan result, 2)
	for i := 0; i < 2; i++ {
		go func() {
			resp, body := post(t, ts.URL+"/v1/fleet", `{"badges":1,"seed":1}`)
			results <- result{resp.StatusCode, body}
		}()
	}
	waitFor(t, "one running + one queued", func() bool {
		return s.inflight.Load() == 1 && s.waiting.Load() == 1
	})

	resp, body := post(t, ts.URL+"/v1/fleet", `{"badges":1,"seed":1}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third request: status = %d, body %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("Retry-After"); got != "7" {
		t.Errorf("Retry-After = %q, want 7", got)
	}
	var e errorResponse
	if err := json.Unmarshal(body, &e); err != nil || e.Status != "shed" {
		t.Errorf("shed body = %s", body)
	}

	close(release)
	for i := 0; i < 2; i++ {
		r := <-results
		if r.code != http.StatusOK {
			t.Errorf("queued request %d: status = %d, body %s", i, r.code, r.body)
		}
	}
	if s.cShed.Value() != 1 {
		t.Errorf("shed counter = %v, want 1", s.cShed.Value())
	}
}

// TestGracefulShutdownDrains: Shutdown must wait for the in-flight request
// to complete (and that request must succeed), while /healthz flips to
// draining.
func TestGracefulShutdownDrains(t *testing.T) {
	release := make(chan struct{})
	s := New(Config{})
	s.runFleet = blockingEngine(release)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- s.Serve(l) }()
	base := "http://" + l.Addr().String()

	reqDone := make(chan result2, 1)
	go func() {
		resp, err := http.Post(base+"/v1/fleet", "application/json", strings.NewReader(`{"badges":1,"seed":1}`))
		if err != nil {
			reqDone <- result2{err: err}
			return
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		reqDone <- result2{code: resp.StatusCode, body: body}
	}()
	waitFor(t, "request in flight", func() bool { return s.inflight.Load() == 1 })

	shutDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutDone <- s.Shutdown(ctx)
	}()
	waitFor(t, "draining flag", func() bool { return s.draining.Load() })
	select {
	case err := <-shutDone:
		t.Fatalf("Shutdown returned (%v) while a request was in flight", err)
	case <-time.After(50 * time.Millisecond):
	}

	close(release)
	if err := <-shutDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	r := <-reqDone
	if r.err != nil || r.code != http.StatusOK {
		t.Fatalf("in-flight request: code=%d err=%v body=%s", r.code, r.err, r.body)
	}
	if err := <-serveErr; !errors.Is(err, http.ErrServerClosed) {
		t.Fatalf("Serve returned %v, want http.ErrServerClosed", err)
	}
}

type result2 struct {
	code int
	body []byte
	err  error
}

// TestDrainingRejectsNewWork: once draining, engine endpoints answer 503.
func TestDrainingRejectsNewWork(t *testing.T) {
	s := New(Config{})
	s.draining.Store(true)
	rec := postRecorder(s, "/v1/fleet", smallFleetBody)
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("fleet while draining: %d", rec.Code)
	}
	hrec := httptest.NewRecorder()
	s.Handler().ServeHTTP(hrec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if hrec.Code != http.StatusServiceUnavailable || !bytes.Contains(hrec.Body.Bytes(), []byte("draining")) {
		t.Errorf("healthz while draining: %d %s", hrec.Code, hrec.Body.String())
	}
}

// TestConcurrentIdenticalRequestsByteIdentical is the serving determinism
// contract: the same body, eight ways at once against the real engine, must
// produce byte-identical 200 responses.
func TestConcurrentIdenticalRequestsByteIdentical(t *testing.T) {
	s := New(Config{MaxInFlight: 4})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const n = 8
	bodies := make([][]byte, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/fleet", "application/json", strings.NewReader(smallFleetBody))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			b, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Error(err)
				return
			}
			if resp.StatusCode != http.StatusOK {
				t.Errorf("request %d: status %d body %s", i, resp.StatusCode, b)
				return
			}
			bodies[i] = b
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if !bytes.Equal(bodies[0], bodies[i]) {
			t.Fatalf("response %d differs from response 0:\n%s\nvs\n%s", i, bodies[i], bodies[0])
		}
	}
	var fr FleetResponse
	if err := json.Unmarshal(bodies[0], &fr); err != nil {
		t.Fatal(err)
	}
	if fr.Status != "ok" || fr.Agg.Runs != 3 || len(fr.Badges) != 3 {
		t.Errorf("unexpected response shape: %+v", fr)
	}
	if fr.Badges[0].Policy != "expavg" || fr.Badges[0].EnergyJ <= 0 {
		t.Errorf("badge 0 = %+v", fr.Badges[0])
	}
}

// TestRunEndpoint exercises /v1/run against the real engine and checks the
// single-badge response matches a one-badge fleet request.
func TestRunEndpoint(t *testing.T) {
	s := New(Config{})
	rec := postRecorder(s, "/v1/run", `{"app":"mp3","policy":"expavg","dpm":"none","seed":7}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	var rr RunResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &rr); err != nil {
		t.Fatal(err)
	}
	if rr.Badge.App != "mp3" || rr.Badge.Policy != "expavg" || rr.Badge.EnergyJ <= 0 {
		t.Errorf("badge = %+v", rr.Badge)
	}
	frec := postRecorder(s, "/v1/fleet", `{"badges":1,"seed":7,"apps":["mp3"],"policies":["expavg"],"dpms":["none"],"workers":1}`)
	var fr FleetResponse
	if err := json.Unmarshal(frec.Body.Bytes(), &fr); err != nil {
		t.Fatal(err)
	}
	if fr.Badges[0] != rr.Badge {
		t.Errorf("/v1/run badge %+v != one-badge fleet %+v", rr.Badge, fr.Badges[0])
	}
}

// TestThresholdsEndpoint: a small real characterisation, repeated — the
// second serve comes from cache and must be byte-identical.
func TestThresholdsEndpoint(t *testing.T) {
	s := New(Config{})
	body := `{"rates":[2,4],"window_size":20,"confidence":0.9,"characterisation_windows":120,"seed":11}`
	rec1 := postRecorder(s, "/v1/thresholds", body)
	if rec1.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec1.Code, rec1.Body.String())
	}
	var tr ThresholdsResponse
	if err := json.Unmarshal(rec1.Body.Bytes(), &tr); err != nil {
		t.Fatal(err)
	}
	if tr.WindowSize != 20 || len(tr.Ratios) == 0 || len(tr.Ratios) != len(tr.Values) {
		t.Errorf("thresholds = %+v", tr)
	}
	rec2 := postRecorder(s, "/v1/thresholds", body)
	if !bytes.Equal(rec1.Body.Bytes(), rec2.Body.Bytes()) {
		t.Error("warm-served thresholds differ from fresh")
	}
	if s.cache.Stats().MemHits == 0 {
		t.Error("second request did not hit the cache")
	}
}

// TestRequestValidation: malformed bodies and unknown enum values are 400s,
// wrong methods 405s, oversized batches rejected.
func TestRequestValidation(t *testing.T) {
	s := New(Config{MaxBadges: 10})
	cases := []struct {
		path, body string
		want       int
	}{
		{"/v1/fleet", `{not json`, http.StatusBadRequest},
		{"/v1/fleet", `{"badges":0}`, http.StatusBadRequest},
		{"/v1/fleet", `{"badges":11}`, http.StatusBadRequest},
		{"/v1/fleet", `{"badges":1,"apps":["doom"]}`, http.StatusBadRequest},
		{"/v1/fleet", `{"badges":1,"policies":["psychic"]}`, http.StatusBadRequest},
		{"/v1/fleet", `{"badges":1,"dpms":["psychic"]}`, http.StatusBadRequest},
		{"/v1/fleet", `{"badges":1,"timeout_ms":-5}`, http.StatusBadRequest},
		{"/v1/fleet", `{"badges":1,"unknown_knob":3}`, http.StatusBadRequest},
		{"/v1/run", `{"app":"doom"}`, http.StatusBadRequest},
		{"/v1/thresholds", `{"rates":[5]}`, http.StatusBadRequest},
	}
	for _, c := range cases {
		rec := postRecorder(s, c.path, c.body)
		if rec.Code != c.want {
			t.Errorf("POST %s %s: status %d, want %d (%s)", c.path, c.body, rec.Code, c.want, rec.Body.String())
		}
		var e errorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
			t.Errorf("POST %s: non-JSON error body %s", c.path, rec.Body.String())
		}
	}
	for _, path := range []string{"/v1/fleet", "/v1/run", "/v1/thresholds"} {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != http.StatusMethodNotAllowed {
			t.Errorf("GET %s: status %d, want 405", path, rec.Code)
		}
	}
}

// TestHealthzAndMetrics: healthz reports ok and metrics exposes the queue,
// latency and cache-hit instruments as a JSON snapshot.
func TestHealthzAndMetrics(t *testing.T) {
	s := New(Config{})
	rec := postRecorder(s, "/v1/fleet", smallFleetBody)
	if rec.Code != http.StatusOK {
		t.Fatalf("fleet: %d %s", rec.Code, rec.Body.String())
	}
	hrec := httptest.NewRecorder()
	s.Handler().ServeHTTP(hrec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	var h healthResponse
	if err := json.Unmarshal(hrec.Body.Bytes(), &h); err != nil || h.Status != "ok" {
		t.Fatalf("healthz = %d %s", hrec.Code, hrec.Body.String())
	}
	mrec := httptest.NewRecorder()
	s.Handler().ServeHTTP(mrec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	var snap map[string]json.RawMessage
	if err := json.Unmarshal(mrec.Body.Bytes(), &snap); err != nil {
		t.Fatalf("metrics not JSON: %v\n%s", err, mrec.Body.String())
	}
	out := mrec.Body.String()
	for _, want := range []string{
		"server.fleet.requests", "server.fleet.latency_ms",
		"server.queue.depth", "server.inflight", "server.thrcache.hit_ratio",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q:\n%s", want, out)
		}
	}
}

// TestFleetWorkersClampedToGOMAXPROCS: a request's workers never reaches
// the engine above GOMAXPROCS — even one inside every server limit that asks
// for a goroutine per badge — and clamping never changes the response bytes.
func TestFleetWorkersClampedToGOMAXPROCS(t *testing.T) {
	s := New(Config{})
	var seen []int
	s.runFleet = func(ctx context.Context, cfg fleet.Config) (*fleet.Report, error) {
		seen = append(seen, cfg.Workers)
		if cfg.Badges > 3 { // too big to simulate here; the seam is what matters
			return &fleet.Report{Badges: []fleet.BadgeResult{{Spec: cfg.SpecFor(0)}}}, nil
		}
		return fleet.RunCtx(ctx, cfg)
	}
	wide := postRecorder(s, "/v1/fleet", `{"badges":100000,"seed":7,"workers":100000}`)
	if wide.Code != http.StatusOK {
		t.Fatalf("wide request = %d: %s", wide.Code, wide.Body.String())
	}
	clamped := postRecorder(s, "/v1/fleet", strings.Replace(smallFleetBody, `"seed":7`, `"seed":7,"workers":100000`, 1))
	plain := postRecorder(s, "/v1/fleet", smallFleetBody)
	if clamped.Code != http.StatusOK || plain.Code != http.StatusOK {
		t.Fatalf("clamped = %d, plain = %d", clamped.Code, plain.Code)
	}
	if !bytes.Equal(clamped.Body.Bytes(), plain.Body.Bytes()) {
		t.Errorf("clamping workers changed the response:\n%s\nvs\n%s", clamped.Body, plain.Body)
	}
	if len(seen) != 3 {
		t.Fatalf("engine ran %d times, want 3", len(seen))
	}
	limit := parallel.Workers(0)
	for i, w := range seen {
		if w > limit {
			t.Errorf("request %d: engine saw Workers=%d, want <= GOMAXPROCS (%d)", i, w, limit)
		}
	}
}

// TestFleetErrorIsDeterministic500: engine errors that are not
// cancellations surface as 500 with the engine message.
func TestFleetErrorIsDeterministic500(t *testing.T) {
	s := New(Config{})
	s.runFleet = func(ctx context.Context, cfg fleet.Config) (*fleet.Report, error) {
		return nil, fmt.Errorf("engine exploded")
	}
	rec := postRecorder(s, "/v1/fleet", `{"badges":1,"seed":1}`)
	if rec.Code != http.StatusInternalServerError || !strings.Contains(rec.Body.String(), "engine exploded") {
		t.Errorf("got %d %s", rec.Code, rec.Body.String())
	}
}
