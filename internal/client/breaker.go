// breaker.go: a circuit breaker over the transport, so a dead or
// unreachable daemon costs one cooldown instead of MaxAttempts dials per
// call. Only transport failures (dial refused, RST, read error) count —
// any HTTP response, even a 503, proves the wire works and resets the
// streak. The state machine is the classic three states:
//
//	closed ──(threshold consecutive transport failures)──▶ open
//	open ──(cooldown + seeded jitter elapses)──▶ half-open
//	half-open ──(probe gets any HTTP response)──▶ closed
//	half-open ──(probe fails at the transport)──▶ open
//
// While open, calls fail fast with *BreakerOpenError instead of dialing.
// Half-open admits exactly one probe; concurrent calls keep failing fast
// until the probe settles. The reopen jitter is drawn from a seeded RNG so
// a fleet of same-config clients still desynchronizes deterministically.
package client

import (
	"fmt"
	"sync"
	"time"

	"smartbadge/internal/stats"
)

// The breaker's tuning. breakerThreshold consecutive transport failures
// open it; it sits above DefaultMaxAttempts so one exhausted call cannot
// trip the breaker by itself — it takes sustained failure across calls.
// An open breaker admits a half-open probe after breakerCooldown plus
// seeded jitter.
const (
	breakerThreshold = 8
	breakerCooldown  = 2 * time.Second
)

// BreakerOpenError is a fast-fail: the breaker is open and no dial was
// attempted. RetryIn says how long until the next half-open probe is
// admitted.
type BreakerOpenError struct {
	RetryIn time.Duration
}

func (e *BreakerOpenError) Error() string {
	return fmt.Sprintf("client: circuit breaker open, retry in %v", e.RetryIn)
}

type breakerState int

const (
	breakerClosed breakerState = iota
	breakerOpen
	breakerHalfOpen
)

// breaker tracks consecutive transport failures. All methods are
// mutex-guarded and do no blocking work under the lock.
type breaker struct {
	mu  sync.Mutex
	rng *stats.RNG
	now func() time.Time // seam for tests; time.Now in production

	state    breakerState
	failures int       // consecutive transport failures
	reopenAt time.Time // when open admits its half-open probe
}

func newBreaker(rng *stats.RNG) *breaker {
	return &breaker{rng: rng, now: time.Now}
}

// allow reports whether a dial may proceed. In the open state it either
// admits the half-open probe (cooldown elapsed) or returns
// *BreakerOpenError with the remaining wait.
func (b *breaker) allow() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerOpen:
		if wait := b.reopenAt.Sub(b.now()); wait > 0 {
			return &BreakerOpenError{RetryIn: wait}
		}
		b.state = breakerHalfOpen
		return nil
	case breakerHalfOpen:
		// A probe is in flight; don't pile on.
		return &BreakerOpenError{RetryIn: b.reopenAt.Sub(b.now())}
	default:
		return nil
	}
}

// onResponse records that an attempt reached the daemon and got an HTTP
// answer — the transport works, whatever the status code said.
func (b *breaker) onResponse() {
	b.mu.Lock()
	b.failures = 0
	b.state = breakerClosed
	b.mu.Unlock()
}

// onTransportFailure records a dial or read failure and reports whether
// this one tripped the breaker open.
func (b *breaker) onTransportFailure() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.failures++
	tripping := b.state == breakerHalfOpen ||
		(b.state == breakerClosed && b.failures >= breakerThreshold)
	if tripping {
		b.state = breakerOpen
		// Jitter the reopen in [cooldown, 1.5*cooldown) so clients sharing
		// a config (but not a seed) don't probe in lockstep.
		b.reopenAt = b.now().Add(breakerCooldown + time.Duration(b.rng.Float64()*float64(breakerCooldown/2)))
	}
	return tripping
}
