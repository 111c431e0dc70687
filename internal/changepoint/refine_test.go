package changepoint

import (
	"bytes"
	"strings"
	"testing"

	"smartbadge/internal/obs"
	"smartbadge/internal/stats"
)

// TestRefineAdoptsAndTrimsWindow is the regression test for the refinement
// path: a refined detection must behave exactly like a threshold crossing —
// adopt the new rate, discard the samples that predate the detection, and
// restart the check cadence. The buggy version returned the Detection but
// left the mixed-rate window and the stale sinceCheck counter in place.
func TestRefineAdoptsAndTrimsWindow(t *testing.T) {
	cfg := testConfig()
	cfg.CheckInterval = cfg.WindowSize // suppress threshold checks entirely
	th := mustThresholds(t, cfg)
	d, err := NewDetector(cfg, th, 20)
	if err != nil {
		t.Fatal(err)
	}
	var traceBuf bytes.Buffer
	o := obs.New(obs.NewRegistry(), obs.NewTracer(&traceBuf))
	d.Instrument(o, "arrival")

	// 30 samples at the current rate (gap 1/20), then pretend a detection
	// just fired so refinement is armed.
	for i := 0; i < 30; i++ {
		if _, ok := d.Observe(1.0 / 20); ok {
			t.Fatal("unexpected detection during prefill")
		}
	}
	d.sinceDetect = 0

	// refineAfter post-"detection" samples at rate 60. The refinement pass
	// on the last of them must re-snap to 60 from the clean suffix alone.
	var det Detection
	var fired bool
	for i := 0; i < refineAfter; i++ {
		det, fired = d.Observe(1.0 / 60)
		if fired && i < refineAfter-1 {
			t.Fatalf("refinement fired early, on sample %d", i+1)
		}
	}
	if !fired {
		t.Fatalf("refinement did not fire on post-detection sample %d", refineAfter)
	}
	if !det.Refined || det.OldRate != 20 || det.NewRate != 60 {
		t.Fatalf("detection = %+v, want refined 20 -> 60", det)
	}
	if det.ChangeOffset != 30 {
		t.Errorf("change offset = %d, want 30 (the prefill length)", det.ChangeOffset)
	}
	if got := d.CurrentRate(); got != 60 {
		t.Errorf("current rate = %v, want 60", got)
	}

	// The fix: only the post-detection samples survive, and the check
	// cadence restarts.
	if got := d.window.Len(); got != refineAfter {
		t.Errorf("window length after refinement = %d, want %d (pre-change samples must be trimmed)", got, refineAfter)
	}
	for i, v := range d.window.Values() {
		if v != 1.0/60 {
			t.Fatalf("window[%d] = %v: pre-change sample survived the trim", i, v)
		}
	}
	if d.sinceCheck != 0 {
		t.Errorf("sinceCheck = %d after refinement, want 0", d.sinceCheck)
	}

	// Observability: the refinement was counted and traced.
	snap := o.Registry().Snapshot()
	if snap.Counters["changepoint.arrival.refinements"] != 1 {
		t.Errorf("refinement counter = %v", snap.Counters)
	}
	if snap.Counters["changepoint.arrival.detections"] != 0 {
		t.Errorf("detection counter = %v, want 0", snap.Counters)
	}
	if err := o.Tracer().Flush(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(traceBuf.String(), `"kind":"detect"`) ||
		!strings.Contains(traceBuf.String(), `"refined":true`) {
		t.Errorf("trace missing refined detect event: %s", traceBuf.String())
	}
}

// TestDetectorTwoStepRateChange drives the detector through two consecutive
// rate changes end to end. With the pre-fix refinement (stale window, stale
// check cadence) the second transition was evaluated against a mixed-rate
// window; after the fix the detector settles on each regime's grid rate.
func TestDetectorTwoStepRateChange(t *testing.T) {
	cfg := testConfig()
	th := mustThresholds(t, cfg)
	d, err := NewDetector(cfg, th, 20)
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(7)
	feed := func(rate float64, n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			d.Observe(rng.Exp(rate))
		}
	}
	feed(20, 150)
	if got := d.CurrentRate(); got != 20 {
		t.Fatalf("after steady state at 20: current = %v", got)
	}
	feed(60, 150)
	if got := d.CurrentRate(); got != 60 {
		t.Fatalf("after first step 20 -> 60: current = %v", got)
	}
	feed(10, 150)
	if got := d.CurrentRate(); got != 10 {
		t.Fatalf("after second step 60 -> 10: current = %v", got)
	}
}

// TestValidateCheckIntervalWindowRelation pins down the Validate rules tied
// to the check cadence: a check interval beyond the window size would evict
// samples unevaluated and is rejected; a check interval above minWindow is
// allowed (minWindow is then inert, see its docs), and so is the smallest
// window, which equals minWindow.
func TestValidateCheckIntervalWindowRelation(t *testing.T) {
	cases := []struct {
		name          string
		check, window int
		ok            bool
	}{
		{"paper defaults", 5, 100, true},
		{"check equals window", 100, 100, true},
		{"check exceeds window", 101, 100, false},
		{"check far beyond window", 500, 100, false},
		{"min window below check interval (inert, allowed)", 20, 100, true},
		{"min window equals window size", 5, minWindow, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := testConfig()
			cfg.CheckInterval = c.check
			cfg.WindowSize = c.window
			err := cfg.Validate()
			if c.ok && err != nil {
				t.Fatalf("unexpected error: %v", err)
			}
			if !c.ok && err == nil {
				t.Fatal("expected validation error")
			}
		})
	}
}
