// Package client is the retrying HTTP client for the dvsimd daemon: the
// consumer-side half of the serving contract. The daemon degrades by
// refusing work — 429 with Retry-After when the admission queue is full,
// 503 while draining — and this package turns those refusals into waiting
// instead of failures: capped exponential backoff with seeded
// deterministic jitter, the server's Retry-After hint honoured as a floor,
// and every wait cut short by context cancellation.
//
// Responses come back as raw bytes, not parsed structs, because the
// daemon's 200 bodies are byte-deterministic: callers (cmd/dvsimctl, the
// CI smoke) compare and archive exact bytes, and parsing would launder
// them. A terminal non-2xx response is a *StatusError carrying the status
// code and body.
//
// Retrying safely needs two more pieces. Every POST carries an
// Idempotency-Key derived from the request content (DeriveIdempotencyKey),
// so a retry of work the daemon already finished — or is still computing —
// replays or joins that work server-side instead of re-running the batch.
// And a circuit breaker (breaker.go) sits in front of the transport: a
// daemon that is gone, not just busy, costs one cooldown instead of
// MaxAttempts dials per call. A retry whose wait cannot finish before the
// context deadline fails fast with *RetryBudgetError rather than sleeping
// into certain death. Stats() exposes lifetime counters for all of it.
//
// client is deliberately NOT on the detcheck deterministic roster: backoff
// timing is wall-clock by nature. What stays deterministic is the jitter
// sequence (a seeded stats.RNG, so retry schedules reproduce under test)
// and the bytes handed back. The retry loop is on the ctxflow roster: it
// must observe ctx between attempts so a dead deadline is never slept
// through.
package client

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"smartbadge/internal/stats"
)

// DefaultMaxAttempts is the attempt bound for a Config.MaxAttempts left
// zero.
const DefaultMaxAttempts = 5

// The retry schedule: the first retry's nominal delay is baseBackoff, and
// the nominal delay doubles per retry up to maxBackoff. A server
// Retry-After hint may exceed the cap; the server knows its queue better
// than the cap does.
const (
	baseBackoff = 100 * time.Millisecond
	maxBackoff  = 5 * time.Second
)

// Config tunes a Client. The zero value (plus a BaseURL) retries with the
// defaults over http.DefaultClient's transport.
type Config struct {
	// BaseURL is the daemon root, e.g. "http://127.0.0.1:8080". Required.
	BaseURL string
	// HTTP is the underlying transport; nil selects a plain http.Client.
	HTTP *http.Client
	// MaxAttempts bounds total tries (first attempt included);
	// <= 0 selects DefaultMaxAttempts.
	MaxAttempts int
	// Seed seeds the jitter stream, so a test (or a reproduced incident)
	// sees the exact same retry schedule.
	Seed uint64
	// Sleep is the wait seam; nil selects a timer-backed wait. It must
	// return early with ctx.Err() when ctx dies mid-wait.
	Sleep func(ctx context.Context, d time.Duration) error
}

// Client retries requests against one dvsimd daemon. Safe for concurrent
// use; the jitter RNG, the breaker, and the stats counters are the only
// shared mutable state.
type Client struct {
	cfg  Config
	http *http.Client
	br   *breaker

	mu  sync.Mutex
	rng *stats.RNG

	st struct {
		attempts          atomic.Int64
		retries           atomic.Int64
		transportFailures atomic.Int64
		breakerOpens      atomic.Int64
		breakerFastFails  atomic.Int64
		retryBudgetFails  atomic.Int64
	}
}

// Stats is a point-in-time snapshot of a Client's lifetime counters.
type Stats struct {
	// Attempts counts HTTP round trips started (first tries included).
	Attempts int64
	// Retries counts backoff waits taken before a re-attempt.
	Retries int64
	// TransportFailures counts attempts that died before an HTTP response.
	TransportFailures int64
	// BreakerOpens counts closed/half-open -> open transitions.
	BreakerOpens int64
	// BreakerFastFails counts calls refused without a dial while open.
	BreakerFastFails int64
	// RetryBudgetFails counts retries abandoned because the next wait
	// could not finish before the context deadline.
	RetryBudgetFails int64
}

// Stats returns the client's lifetime counters.
func (c *Client) Stats() Stats {
	return Stats{
		Attempts:          c.st.attempts.Load(),
		Retries:           c.st.retries.Load(),
		TransportFailures: c.st.transportFailures.Load(),
		BreakerOpens:      c.st.breakerOpens.Load(),
		BreakerFastFails:  c.st.breakerFastFails.Load(),
		RetryBudgetFails:  c.st.retryBudgetFails.Load(),
	}
}

// StatusError is a terminal non-2xx response: either a status the client
// never retries, or a retryable status that survived every attempt.
// RetryAfter is the server's Retry-After hint, when one came with the
// response.
type StatusError struct {
	Code       int
	Body       []byte
	RetryAfter time.Duration
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("client: server answered %d: %s", e.Code, bytes.TrimSpace(e.Body))
}

// RetryBudgetError is a fail-fast on the wait itself: the retry schedule
// (the computed backoff, or the server's Retry-After floor) demands a
// delay that cannot finish before the context deadline, so sleeping would
// only convert a prompt failure into a late one. Delay is what the
// schedule asked for, Remaining what the deadline had left, Last the
// failure that triggered the retry.
type RetryBudgetError struct {
	Delay     time.Duration
	Remaining time.Duration
	Last      error
}

func (e *RetryBudgetError) Error() string {
	return fmt.Sprintf("client: next retry in %v exceeds the %v left before the deadline (last attempt: %v)",
		e.Delay, e.Remaining, e.Last)
}

// Unwrap exposes both the deadline nature of the failure (so callers'
// errors.Is(err, context.DeadlineExceeded) checks keep working) and the
// last attempt's error.
func (e *RetryBudgetError) Unwrap() []error {
	return []error{context.DeadlineExceeded, e.Last}
}

// DeriveIdempotencyKey is the token the client sends as Idempotency-Key
// on every POST: hex(sha256(method \x00 path \x00 body)). Deriving it
// from the request content (rather than a random UUID) means a crashed
// and restarted caller re-sending the same work still deduplicates, and
// a test can predict the header.
func DeriveIdempotencyKey(method, path string, body []byte) string {
	h := sha256.New()
	h.Write([]byte(method))
	h.Write([]byte{0})
	h.Write([]byte(path))
	h.Write([]byte{0})
	h.Write(body)
	return hex.EncodeToString(h.Sum(nil))
}

// New assembles a Client from cfg.
func New(cfg Config) (*Client, error) {
	if cfg.BaseURL == "" {
		return nil, errors.New("client: BaseURL is required")
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = DefaultMaxAttempts
	}
	h := cfg.HTTP
	if h == nil {
		h = &http.Client{}
	}
	rng := stats.NewRNG(cfg.Seed)
	// The breaker jitters its reopen from an independent substream so
	// breaker activity never perturbs the backoff schedule.
	c := &Client{cfg: cfg, http: h, rng: rng, br: newBreaker(rng.Split())}
	if c.cfg.Sleep == nil {
		c.cfg.Sleep = sleepCtx
	}
	return c, nil
}

// Fleet posts body to /v1/fleet and returns the raw response bytes.
func (c *Client) Fleet(ctx context.Context, body []byte) ([]byte, error) {
	return c.do(ctx, http.MethodPost, "/v1/fleet", body)
}

// Run posts body to /v1/run and returns the raw response bytes.
func (c *Client) Run(ctx context.Context, body []byte) ([]byte, error) {
	return c.do(ctx, http.MethodPost, "/v1/run", body)
}

// Thresholds posts body to /v1/thresholds and returns the raw response
// bytes.
func (c *Client) Thresholds(ctx context.Context, body []byte) ([]byte, error) {
	return c.do(ctx, http.MethodPost, "/v1/thresholds", body)
}

// Health GETs /healthz and returns the raw response bytes. A draining
// daemon answers 503, which Health retries like any other request — by
// the time the attempts run out the answer is an honest *StatusError.
func (c *Client) Health(ctx context.Context) ([]byte, error) {
	return c.do(ctx, http.MethodGet, "/healthz", nil)
}

// retryable reports whether a response status is worth another attempt:
// the daemon's two refuse-work answers. Everything else — 4xx validation
// errors, 504 cancellations — would fail identically on a resend.
func retryable(code int) bool {
	return code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable
}

// do runs the retry loop around one logical request. Every POST carries
// an Idempotency-Key derived from the request content, so a retry the
// server already answered (or is still computing) joins that work instead
// of re-running it — the retry loop and the daemon's dedup are two halves
// of one contract.
func (c *Client) do(ctx context.Context, method, path string, body []byte) ([]byte, error) {
	idemKey := ""
	if method == http.MethodPost {
		idemKey = DeriveIdempotencyKey(method, path, body)
	}
	var lastErr error
	backoff := baseBackoff
	for attempt := 1; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("client: %s %s: %w (last attempt: %w)", method, path, err, cause(lastErr))
		}
		if err := c.br.allow(); err != nil {
			c.st.breakerFastFails.Add(1)
			return nil, fmt.Errorf("client: %s %s: %w (last attempt: %w)", method, path, err, cause(lastErr))
		}
		c.st.attempts.Add(1)
		respBody, code, retryAfter, err := c.attempt(ctx, method, path, idemKey, body)
		if err == nil {
			c.br.onResponse()
		} else {
			c.st.transportFailures.Add(1)
			if c.br.onTransportFailure() {
				c.st.breakerOpens.Add(1)
			}
		}
		switch {
		case err == nil && code/100 == 2:
			return respBody, nil
		case err == nil && !retryable(code):
			return nil, &StatusError{Code: code, Body: respBody, RetryAfter: retryAfter}
		case err == nil:
			lastErr = &StatusError{Code: code, Body: respBody, RetryAfter: retryAfter}
		default:
			if ctx.Err() != nil {
				return nil, fmt.Errorf("client: %s %s: %w (last attempt: %w)", method, path, ctx.Err(), cause(lastErr))
			}
			lastErr = err
		}
		if attempt >= c.cfg.MaxAttempts {
			return nil, fmt.Errorf("client: %s %s failed after %d attempts: %w", method, path, attempt, lastErr)
		}
		delay := c.jitter(backoff)
		// The server's hint knows its queue; never retry sooner than it
		// asks.
		var se *StatusError
		if errors.As(lastErr, &se) && se.RetryAfter > delay {
			delay = se.RetryAfter
		}
		// Fail fast when the wait cannot finish inside the deadline:
		// sleeping would burn the remaining budget to report the same
		// failure later.
		if dl, ok := ctx.Deadline(); ok {
			if remaining := time.Until(dl); delay >= remaining {
				c.st.retryBudgetFails.Add(1)
				return nil, fmt.Errorf("client: %s %s: %w",
					method, path, &RetryBudgetError{Delay: delay, Remaining: remaining, Last: cause(lastErr)})
			}
		}
		c.st.retries.Add(1)
		if err := c.cfg.Sleep(ctx, delay); err != nil {
			return nil, fmt.Errorf("client: %s %s: %w (last attempt: %w)", method, path, err, cause(lastErr))
		}
		if backoff *= 2; backoff > maxBackoff {
			backoff = maxBackoff
		}
	}
}

// attempt performs one HTTP round trip, drains the response and parses
// its Retry-After hint (delay-seconds form only; the daemon never sends
// the HTTP-date form).
func (c *Client) attempt(ctx context.Context, method, path, idemKey string, body []byte) ([]byte, int, time.Duration, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.cfg.BaseURL+path, rd)
	if err != nil {
		return nil, 0, 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if idemKey != "" {
		req.Header.Set("Idempotency-Key", idemKey)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, 0, 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, 0, 0, err
	}
	var retryAfter time.Duration
	if s, perr := strconv.Atoi(resp.Header.Get("Retry-After")); perr == nil && s > 0 {
		retryAfter = time.Duration(s) * time.Second
	}
	return b, resp.StatusCode, retryAfter, nil
}

// jitter draws the actual delay for a nominal backoff: uniformly in
// [backoff/2, backoff), so synchronized clients desynchronize while the
// mean stays at 3/4 of nominal. The RNG draw is the only work under the
// lock.
func (c *Client) jitter(backoff time.Duration) time.Duration {
	c.mu.Lock()
	f := c.rng.Float64()
	c.mu.Unlock()
	return backoff/2 + time.Duration(f*float64(backoff/2))
}

// cause keeps error wrapping total: the first attempt can be cut off
// before any failure has been recorded.
func cause(err error) error {
	if err == nil {
		return errors.New("none made")
	}
	return err
}

// sleepCtx is the production Sleep: a timer select that aborts on ctx.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
