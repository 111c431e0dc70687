package client

import (
	"errors"
	"testing"
	"time"

	"smartbadge/internal/stats"
)

// fakeClock drives the breaker's now seam.
type fakeClock struct{ at time.Time }

func (f *fakeClock) now() time.Time          { return f.at }
func (f *fakeClock) advance(d time.Duration) { f.at = f.at.Add(d) }

func newTestBreaker(seed uint64) (*breaker, *fakeClock) {
	clk := &fakeClock{at: time.Unix(1000, 0)}
	b := newBreaker(stats.NewRNG(seed))
	b.now = clk.now
	return b, clk
}

// trip opens a closed breaker with breakerThreshold transport failures.
func trip(t *testing.T, b *breaker) {
	t.Helper()
	for i := 0; i < breakerThreshold; i++ {
		b.onTransportFailure()
	}
	if b.state != breakerOpen {
		t.Fatalf("%d failures left the breaker in state %d", breakerThreshold, b.state)
	}
}

func TestBreakerOpensAtThreshold(t *testing.T) {
	b, _ := newTestBreaker(1)
	for i := 0; i < breakerThreshold-1; i++ {
		if b.onTransportFailure() {
			t.Fatalf("breaker tripped after %d failures, threshold is %d", i+1, breakerThreshold)
		}
		if err := b.allow(); err != nil {
			t.Fatalf("breaker rejected while still closed: %v", err)
		}
	}
	if !b.onTransportFailure() {
		t.Fatalf("failure %d did not trip the breaker", breakerThreshold)
	}
	err := b.allow()
	var boe *BreakerOpenError
	if !errors.As(err, &boe) {
		t.Fatalf("allow while open = %v, want BreakerOpenError", err)
	}
	if boe.RetryIn <= 0 {
		t.Fatalf("RetryIn = %v, want positive", boe.RetryIn)
	}
}

func TestBreakerResponseResetsStreak(t *testing.T) {
	b, _ := newTestBreaker(1)
	for i := 0; i < breakerThreshold-1; i++ {
		b.onTransportFailure()
	}
	b.onResponse() // any HTTP answer, even a 503, proves the wire works
	for i := 0; i < breakerThreshold-1; i++ {
		b.onTransportFailure()
	}
	if b.state != breakerClosed {
		t.Fatal("breaker opened although the failure streak was broken")
	}
}

func TestBreakerHalfOpenProbe(t *testing.T) {
	b, clk := newTestBreaker(7)
	trip(t, b)
	if err := b.allow(); err == nil {
		t.Fatal("open breaker admitted a call before cooldown")
	}
	// Jitter keeps the reopen inside [cooldown, 1.5*cooldown).
	clk.advance(breakerCooldown * 3 / 2)
	if err := b.allow(); err != nil {
		t.Fatalf("cooldown elapsed but probe refused: %v", err)
	}
	// The probe is in flight: concurrent calls still fail fast.
	if err := b.allow(); err == nil {
		t.Fatal("half-open breaker admitted a second call alongside the probe")
	}
	// Probe succeeds: closed again, everyone admitted.
	b.onResponse()
	if err := b.allow(); err != nil {
		t.Fatalf("breaker still refusing after a successful probe: %v", err)
	}
}

func TestBreakerFailedProbeReopens(t *testing.T) {
	b, clk := newTestBreaker(7)
	trip(t, b)
	clk.advance(breakerCooldown * 3 / 2)
	if err := b.allow(); err != nil {
		t.Fatalf("probe refused: %v", err)
	}
	// One failed probe re-opens the breaker, without a fresh streak.
	if !b.onTransportFailure() {
		t.Fatal("failed probe did not re-open the breaker")
	}
	if err := b.allow(); err == nil {
		t.Fatal("breaker admitted a call right after a failed probe")
	}
	clk.advance(breakerCooldown * 3 / 2)
	if err := b.allow(); err != nil {
		t.Fatalf("second probe window refused: %v", err)
	}
}

// TestBreakerJitterDeterministic: same seed, same reopen schedule — the
// jitter reproduces, and distinct seeds diverge.
func TestBreakerJitterDeterministic(t *testing.T) {
	reopen := func(seed uint64) time.Time {
		b, _ := newTestBreaker(seed)
		trip(t, b)
		return b.reopenAt
	}
	if !reopen(7).Equal(reopen(7)) {
		t.Fatal("same-seed breakers disagree on the reopen time")
	}
	if reopen(7).Equal(reopen(8)) {
		t.Fatal("distinct seeds produced identical reopen jitter")
	}
	lo, hi := reopen(7), reopen(9)
	base := time.Unix(1000, 0)
	for _, at := range []time.Time{lo, hi} {
		d := at.Sub(base)
		if d < breakerCooldown || d >= breakerCooldown*3/2 {
			t.Fatalf("reopen delay %v outside [cooldown, 1.5*cooldown)", d)
		}
	}
}
