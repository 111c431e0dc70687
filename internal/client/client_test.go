package client

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// recordedSleep is a Sleep seam that records delays instead of waiting.
type recordedSleep struct {
	mu     sync.Mutex
	delays []time.Duration
}

func (r *recordedSleep) sleep(ctx context.Context, d time.Duration) error {
	r.mu.Lock()
	r.delays = append(r.delays, d)
	r.mu.Unlock()
	return ctx.Err()
}

// newTestClient builds a client against ts with instant sleeps.
func newTestClient(t *testing.T, ts *httptest.Server, rec *recordedSleep) *Client {
	t.Helper()
	c, err := New(Config{BaseURL: ts.URL, Seed: 1, Sleep: rec.sleep})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestSuccessReturnsRawBytes: a 200 comes back verbatim — bytes, not a
// parse — with zero retries spent.
func TestSuccessReturnsRawBytes(t *testing.T) {
	const body = "{\"status\":\"ok\"}\n"
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/fleet" || r.Method != http.MethodPost {
			t.Errorf("unexpected request %s %s", r.Method, r.URL.Path)
		}
		w.Write([]byte(body))
	}))
	defer ts.Close()
	rec := &recordedSleep{}
	got, err := newTestClient(t, ts, rec).Fleet(context.Background(), []byte(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != body {
		t.Errorf("body = %q, want %q", got, body)
	}
	if len(rec.delays) != 0 {
		t.Errorf("slept %v on a clean request", rec.delays)
	}
}

// TestRetriesShedThenSucceeds: two 429s then a 200 — the client waits and
// wins, and the caller never sees the sheds.
func TestRetriesShedThenSucceeds(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			return
		}
		w.Write([]byte("ok\n"))
	}))
	defer ts.Close()
	rec := &recordedSleep{}
	got, err := newTestClient(t, ts, rec).Fleet(context.Background(), []byte(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "ok\n" || calls.Load() != 3 {
		t.Errorf("body %q after %d calls, want ok after 3", got, calls.Load())
	}
	if len(rec.delays) != 2 {
		t.Fatalf("slept %d times, want 2", len(rec.delays))
	}
	for _, d := range rec.delays {
		// Retry-After: 1 outranks the sub-second computed backoff.
		if d != time.Second {
			t.Errorf("delay %v, want the server's 1s hint as the floor", d)
		}
	}
}

// TestBackoffGrowsWithJitter pins the schedule shape against transport
// errors (no Retry-After in play): nominal backoff doubles per retry,
// capped at maxBackoff, and each actual delay lands in
// [nominal/2, nominal).
func TestBackoffGrowsWithJitter(t *testing.T) {
	rec := &recordedSleep{}
	c, err := New(Config{
		BaseURL:     "http://127.0.0.1:1", // nothing listens on port 1
		MaxAttempts: 8,
		Seed:        7,
		Sleep:       rec.sleep,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Health(context.Background()); err == nil {
		t.Fatal("dead endpoint succeeded")
	}
	ms := time.Millisecond
	nominal := []time.Duration{100 * ms, 200 * ms, 400 * ms, 800 * ms, 1600 * ms, 3200 * ms, 5000 * ms}
	if len(rec.delays) != len(nominal) {
		t.Fatalf("slept %v, want %d delays", rec.delays, len(nominal))
	}
	for i, d := range rec.delays {
		if d < nominal[i]/2 || d >= nominal[i] {
			t.Errorf("delay %d = %v, want in [%v, %v)", i, d, nominal[i]/2, nominal[i])
		}
	}

	// Same seed, same schedule: the jitter is deterministic.
	rec2 := &recordedSleep{}
	c2, err := New(Config{BaseURL: "http://127.0.0.1:1", MaxAttempts: 8, Seed: 7, Sleep: rec2.sleep})
	if err != nil {
		t.Fatal(err)
	}
	c2.Health(context.Background())
	for i := range rec.delays {
		if rec.delays[i] != rec2.delays[i] {
			t.Errorf("delay %d differs across same-seed clients: %v vs %v", i, rec.delays[i], rec2.delays[i])
		}
	}
}

// TestNonRetryableFailsFast: a 400 means the request itself is wrong;
// resending it would burn attempts to get the same answer.
func TestNonRetryableFailsFast(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusBadRequest)
		w.Write([]byte(`{"status":"error","error":"badges must be >= 1"}`))
	}))
	defer ts.Close()
	rec := &recordedSleep{}
	_, err := newTestClient(t, ts, rec).Fleet(context.Background(), []byte(`{}`))
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusBadRequest {
		t.Fatalf("err = %v, want StatusError 400", err)
	}
	if !strings.Contains(string(se.Body), "badges must be >= 1") {
		t.Errorf("error body lost: %q", se.Body)
	}
	if calls.Load() != 1 || len(rec.delays) != 0 {
		t.Errorf("calls=%d sleeps=%d, want exactly one attempt", calls.Load(), len(rec.delays))
	}
}

// TestExhaustionSurfacesLastStatus: a daemon that drains forever costs
// MaxAttempts tries and then reports the 503 it kept hitting.
func TestExhaustionSurfacesLastStatus(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.Header().Set("Retry-After", "2")
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer ts.Close()
	rec := &recordedSleep{}
	c, err := New(Config{BaseURL: ts.URL, MaxAttempts: 3, Seed: 1, Sleep: rec.sleep})
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Health(context.Background())
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusServiceUnavailable {
		t.Fatalf("err = %v, want wrapped StatusError 503", err)
	}
	if se.RetryAfter != 2*time.Second {
		t.Errorf("RetryAfter = %v, want the server's 2s hint", se.RetryAfter)
	}
	if calls.Load() != 3 {
		t.Errorf("made %d attempts, want 3", calls.Load())
	}
}

// TestDeadlineCutsWaitShort: the context deadline lands during a backoff
// wait (the daemon asked for 60s) and the call returns promptly with the
// context error, not after the hint.
func TestDeadlineCutsWaitShort(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "60")
		w.WriteHeader(http.StatusTooManyRequests)
	}))
	defer ts.Close()
	c, err := New(Config{BaseURL: ts.URL, Seed: 1}) // real sleepCtx
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = c.Fleet(ctx, []byte(`{}`))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("deadline took %v to land; the 60s hint was slept through", elapsed)
	}
}

// TestPreCancelledContext never even dials.
func TestPreCancelledContext(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
	}))
	defer ts.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := newTestClient(t, ts, &recordedSleep{}).Health(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want canceled", err)
	}
	if calls.Load() != 0 {
		t.Errorf("dead context still dialed the server %d times", calls.Load())
	}
}

// TestConfigValidation: a client without a BaseURL is unusable.
func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("empty BaseURL accepted")
	}
}

// TestRetryBudgetFailFast (satellite): the daemon's Retry-After floor
// lands beyond the context deadline — the client must fail immediately
// with the typed error instead of sleeping into the deadline.
func TestRetryBudgetFailFast(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.Header().Set("Retry-After", "60")
		w.WriteHeader(http.StatusTooManyRequests)
	}))
	defer ts.Close()
	rec := &recordedSleep{}
	c := newTestClient(t, ts, rec)
	ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := c.Fleet(ctx, []byte(`{}`))
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("fail-fast took %v; the 60s floor was waited out", elapsed)
	}
	var rbe *RetryBudgetError
	if !errors.As(err, &rbe) {
		t.Fatalf("err = %v, want RetryBudgetError", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want to satisfy errors.Is(DeadlineExceeded)", err)
	}
	if rbe.Delay != 60*time.Second {
		t.Errorf("Delay = %v, want the server's 60s floor", rbe.Delay)
	}
	var se *StatusError
	if !errors.As(rbe.Last, &se) || se.Code != http.StatusTooManyRequests {
		t.Errorf("Last = %v, want the 429 that triggered the retry", rbe.Last)
	}
	if calls.Load() != 1 || len(rec.delays) != 0 {
		t.Errorf("calls=%d sleeps=%d, want one attempt and no sleep", calls.Load(), len(rec.delays))
	}
	if got := c.Stats().RetryBudgetFails; got != 1 {
		t.Errorf("RetryBudgetFails = %d, want 1", got)
	}
}

// TestRetryBudgetDeterministicSchedule: with no Retry-After hint the
// budget decision rides on the jittered backoff — which is seeded, so two
// same-seed clients refuse the same wait. The recorded sleeps return at
// once, so the schedule climbs to the capped step inside the deadline.
func TestRetryBudgetDeterministicSchedule(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusTooManyRequests)
	}))
	defer ts.Close()
	run := func() time.Duration {
		c, err := New(Config{
			BaseURL:     ts.URL,
			MaxAttempts: 10,
			Seed:        7,
			Sleep:       (&recordedSleep{}).sleep,
		})
		if err != nil {
			t.Fatal(err)
		}
		// Seed 7's delays stay under 1.7 s until the capped step, whose
		// jitter lands in [2.5s, 5s).
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_, err = c.Fleet(ctx, []byte(`{}`))
		var rbe *RetryBudgetError
		if !errors.As(err, &rbe) {
			t.Fatalf("err = %v, want RetryBudgetError", err)
		}
		if rbe.Delay < maxBackoff/2 || rbe.Delay >= maxBackoff {
			t.Fatalf("refused delay %v outside the capped jitter window [%v, %v)", rbe.Delay, maxBackoff/2, maxBackoff)
		}
		return rbe.Delay
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("same-seed clients refused different waits: %v vs %v", a, b)
	}
}

// TestPostsCarryIdempotencyKey: every POST attempt — including retries —
// sends the content-derived key, so the daemon can deduplicate; GETs
// carry none.
func TestPostsCarryIdempotencyKey(t *testing.T) {
	var mu sync.Mutex
	var keys []string
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		keys = append(keys, r.Header.Get("Idempotency-Key"))
		mu.Unlock()
		if r.Method == http.MethodPost && calls.Add(1) == 1 {
			w.WriteHeader(http.StatusTooManyRequests) // force one retry
			return
		}
		w.Write([]byte("ok\n"))
	}))
	defer ts.Close()
	c := newTestClient(t, ts, &recordedSleep{})
	body := []byte(`{"badges":3}`)
	if _, err := c.Fleet(context.Background(), body); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Health(context.Background()); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(keys) != 3 {
		t.Fatalf("saw %d requests, want 3 (two fleet attempts + health)", len(keys))
	}
	want := DeriveIdempotencyKey(http.MethodPost, "/v1/fleet", body)
	if keys[0] != want || keys[1] != want {
		t.Errorf("POST keys = %q, %q; want both %q", keys[0], keys[1], want)
	}
	if keys[2] != "" {
		t.Errorf("GET carried Idempotency-Key %q, want none", keys[2])
	}
	if DeriveIdempotencyKey(http.MethodPost, "/v1/fleet", []byte(`{"badges":4}`)) == want {
		t.Error("different bodies derived the same key")
	}
}

// TestBreakerFastFailsWhenOpen: sustained transport failure across calls
// trips the breaker, after which calls are refused without a dial.
func TestBreakerFastFailsWhenOpen(t *testing.T) {
	rec := &recordedSleep{}
	c, err := New(Config{
		BaseURL:     "http://127.0.0.1:1", // nothing listens on port 1
		MaxAttempts: 5,
		Seed:        7,
		Sleep:       rec.sleep,
	})
	if err != nil {
		t.Fatal(err)
	}
	// A stopped clock: the open breaker never reaches its half-open probe.
	c.br.now = (&fakeClock{at: time.Unix(1000, 0)}).now
	// Call 1: five transport failures, streak 5 < breakerThreshold, the
	// breaker stays closed.
	if _, err := c.Health(context.Background()); err == nil {
		t.Fatal("dead endpoint succeeded")
	}
	// Call 2: the eighth failure trips the breaker; the in-loop retry is
	// then refused without dialing.
	_, err = c.Health(context.Background())
	var boe *BreakerOpenError
	if !errors.As(err, &boe) {
		t.Fatalf("call after tripping = %v, want BreakerOpenError", err)
	}
	attemptsSoFar := c.Stats().Attempts
	// Call 3: fast fail, zero dials.
	_, err = c.Health(context.Background())
	if !errors.As(err, &boe) {
		t.Fatalf("call while open = %v, want BreakerOpenError", err)
	}
	if boe.RetryIn < breakerCooldown {
		t.Errorf("RetryIn = %v, want at least the %v cooldown", boe.RetryIn, breakerCooldown)
	}
	st := c.Stats()
	if st.Attempts != attemptsSoFar {
		t.Errorf("open breaker still dialed: attempts %d -> %d", attemptsSoFar, st.Attempts)
	}
	if st.Attempts != breakerThreshold || st.TransportFailures != breakerThreshold {
		t.Errorf("attempts=%d transportFailures=%d, want %d and %d",
			st.Attempts, st.TransportFailures, breakerThreshold, breakerThreshold)
	}
	if st.BreakerOpens != 1 || st.BreakerFastFails != 2 {
		t.Errorf("breakerOpens=%d fastFails=%d, want 1 and 2", st.BreakerOpens, st.BreakerFastFails)
	}
}

// TestStatsCountRetries: the counters tell the story of a shed-then-win
// call.
func TestStatsCountRetries(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			w.WriteHeader(http.StatusTooManyRequests)
			return
		}
		w.Write([]byte("ok\n"))
	}))
	defer ts.Close()
	c := newTestClient(t, ts, &recordedSleep{})
	if _, err := c.Fleet(context.Background(), []byte(`{}`)); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Attempts != 3 || st.Retries != 2 {
		t.Errorf("attempts=%d retries=%d, want 3 and 2", st.Attempts, st.Retries)
	}
	if st.TransportFailures != 0 || st.BreakerOpens != 0 {
		t.Errorf("clean HTTP exchanges counted as transport failures: %+v", st)
	}
}
