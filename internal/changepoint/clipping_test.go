package changepoint

import (
	"math"
	"testing"

	"smartbadge/internal/stats"
)

// TestQuantileClipped pins the clipping rule: overflow biases the confidence
// quantile once the clipped upper tail is comparable to the tail mass the
// quantile leaves above itself; underflow only once it swallows the whole
// quantile target.
func TestQuantileClipped(t *testing.T) {
	mk := func(inRange, under, over int) *stats.Histogram {
		h := stats.NewHistogram(0, 10, 10)
		for i := 0; i < inRange; i++ {
			h.Add(5)
		}
		for i := 0; i < under; i++ {
			h.Add(-1)
		}
		for i := 0; i < over; i++ {
			h.Add(100)
		}
		return h
	}
	if quantileClipped(mk(1000, 0, 0), 0.995) {
		t.Error("clean histogram flagged as clipped")
	}
	// Tail mass at 0.995 over ~1000 samples is ~5; a single overflow sample
	// is well under half of that and tolerable...
	if quantileClipped(mk(1000, 0, 1), 0.995) {
		t.Error("single overflow sample flagged as clipped")
	}
	// ...but three or more overlap the quantile's own tail.
	if !quantileClipped(mk(1000, 0, 3), 0.995) {
		t.Error("overflow overlapping the quantile tail not flagged")
	}
	// Underflow below the quantile target does not bias an upper quantile.
	if quantileClipped(mk(1000, 500, 0), 0.995) {
		t.Error("benign underflow flagged as clipped")
	}
	// Underflow swallowing the whole target does.
	if !quantileClipped(mk(0, 1000, 0), 0.995) {
		t.Error("total underflow not flagged")
	}
	if quantileClipped(stats.NewHistogram(0, 1, 4), 0.995) {
		t.Error("empty histogram flagged as clipped")
	}
}

// TestCharacteriseRatioWidensSpanWhenClipped checks the loud-failure fix end
// to end: a span too narrow for the statistic clips, and widen recovers by
// re-binning the identical sample stream over a doubled span until the
// confidence quantile is clean.
func TestCharacteriseRatioWidensSpanWhenClipped(t *testing.T) {
	cfg := testConfig()
	base := stats.NewRNG(cfg.Seed)

	// A deliberately tiny span must clip near the quantile...
	tiny := newScore(newGrid(cfg), 6)
	tiny.span = 0.05
	tiny.h = stats.NewHistogram(-tiny.span, tiny.span, 4096)
	simulate(base.SplitAt(3), cfg.WindowSize, cfg.CharacterisationWindows, []score{tiny})
	if !quantileClipped(tiny.h, cfg.Confidence) {
		t.Fatal("expected a 0.05-wide span to clip the null statistic")
	}

	// ...while widen returns a clean histogram over the same samples (each
	// attempt re-simulates a Clone of the derived stream, so the data is
	// identical).
	s, drawn, err := widen(base.SplitAt(3), tiny)
	if err != nil {
		t.Fatal(err)
	}
	if quantileClipped(s.h, cfg.Confidence) {
		t.Fatal("widen returned a clipped histogram")
	}
	if s.h.Count() != int64(cfg.CharacterisationWindows) {
		t.Fatalf("sample count = %d, want %d", s.h.Count(), cfg.CharacterisationWindows)
	}
	if attempts := int(math.Log2(s.span / tiny.span)); drawn != attempts*cfg.CharacterisationWindows {
		t.Fatalf("drew %d windows over %d doublings, want %d", drawn, attempts, attempts*cfg.CharacterisationWindows)
	}
	if s.h.Mean() != tiny.h.Mean() {
		t.Fatalf("widening changed the data: mean %v vs %v", s.h.Mean(), tiny.h.Mean())
	}
}
