package main

import (
	"context"
	"time"

	"smartbadge/internal/stats"
)

// poissonSchedule draws the due times of a Poisson process of rate
// arrivals per second over [0, window), as offsets from the stream start.
func poissonSchedule(rng *stats.RNG, rate float64, window time.Duration) []time.Duration {
	var due []time.Duration
	for t := rng.Exp(rate); t < window.Seconds(); t += rng.Exp(rate) {
		due = append(due, time.Duration(t*float64(time.Second)))
	}
	return due
}

// sample is the timing of one scheduled request, as offsets from the
// stream start.
type sample struct {
	due, sent, done time.Duration
	err             error
}

// latency is measured from the due time, so time a request spent waiting
// behind a stalled predecessor counts against it.
func (s sample) latency() time.Duration { return s.done - s.due }

// lag is how late the generator sent the request.
func (s sample) lag() time.Duration { return s.sent - s.due }

// clock is the time source of a stream; tests substitute a fake one.
type clock interface {
	now() time.Duration
	sleepUntil(ctx context.Context, t time.Duration) error
}

// wallClock measures offsets from start on the host's monotonic clock.
type wallClock struct{ start time.Time }

func (c wallClock) now() time.Duration { return time.Since(c.start) }

func (c wallClock) sleepUntil(ctx context.Context, t time.Duration) error {
	d := t - c.now()
	if d <= 0 {
		return ctx.Err()
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// runStream is one open-loop sender: it sends request k at due[k], or as
// soon as request k-1 has finished if that is later, and returns one
// sample per scheduled request. Requests it could not send before ctx
// ended carry ctx's error.
func runStream(ctx context.Context, clk clock, due []time.Duration, send func(ctx context.Context, k int) error) []sample {
	out := make([]sample, len(due))
	for k, d := range due {
		out[k].due = d
		if err := clk.sleepUntil(ctx, d); err != nil {
			for j := k; j < len(due); j++ {
				out[j] = sample{due: due[j], err: err}
			}
			return out
		}
		out[k].sent = clk.now()
		out[k].err = send(ctx, k)
		out[k].done = clk.now()
	}
	return out
}
