package changepoint

import (
	"math"
	"reflect"
	"testing"

	"smartbadge/internal/stats"
)

// testConfigSmall returns a cheap-but-valid config for equivalence tests.
func testConfigSmall(t *testing.T) (Config, *Thresholds) {
	t.Helper()
	return gridThresholds(t, 10, 40, 4)
}

// TestIncrementalMatchesNaiveDetections drives the production detector and
// the ReferenceDetector oracle (O(m) backward-pass statistic at every check,
// no screen) through the same long rate-switching stream and requires the
// identical detection sequence: same detections at the same samples with the
// same adopted rates and change offsets, statistics agreeing to rounding
// precision. This is the detector-level equivalence test for the
// incremental-sum and screening refactors (the window-level one lives in
// internal/stats).
func TestIncrementalMatchesNaiveDetections(t *testing.T) {
	cfg, th := testConfigSmall(t)

	fast, err := NewDetector(cfg, th, cfg.Rates[0])
	if err != nil {
		t.Fatal(err)
	}
	slow, err := NewReferenceDetector(cfg, th, cfg.Rates[0])
	if err != nil {
		t.Fatal(err)
	}

	rng := stats.NewRNG(99)
	rates := cfg.Rates
	var fastDets, slowDets []Detection
	sample := 0
	for seg := 0; seg < 40; seg++ {
		rate := rates[rng.Intn(len(rates))]
		for i := 0; i < 250; i++ {
			x := rng.Exp(rate)
			sample++
			if det, ok := fast.Observe(x); ok {
				fastDets = append(fastDets, det)
			}
			if det, ok := slow.Observe(x); ok {
				slowDets = append(slowDets, det)
			}
		}
	}
	if len(fastDets) == 0 {
		t.Fatalf("no detections over %d samples with %d rate switches — test is vacuous", sample, 40)
	}
	if len(fastDets) != len(slowDets) {
		t.Fatalf("production detector made %d detections, reference %d", len(fastDets), len(slowDets))
	}
	for i := range fastDets {
		f, s := fastDets[i], slowDets[i]
		if f.OldRate != s.OldRate || f.NewRate != s.NewRate ||
			f.SampleIndex != s.SampleIndex || f.ChangeOffset != s.ChangeOffset ||
			f.Refined != s.Refined || f.Threshold != s.Threshold {
			t.Fatalf("detection %d diverged:\nproduction %+v\nreference  %+v", i, f, s)
		}
		tol := 1e-9 * (1 + math.Abs(s.Statistic))
		if math.Abs(f.Statistic-s.Statistic) > tol {
			t.Errorf("detection %d: statistic %v vs %v (|Δ|>%g)", i, f.Statistic, s.Statistic, tol)
		}
		if s.MLERate > 0 && math.Abs(f.MLERate-s.MLERate) > 1e-9*s.MLERate {
			t.Errorf("detection %d: MLE rate %v vs %v", i, f.MLERate, s.MLERate)
		}
	}
	if fast.CurrentRate() != slow.CurrentRate() {
		t.Errorf("final rates diverged: %v vs %v", fast.CurrentRate(), slow.CurrentRate())
	}
}

// TestObserveSteadyStateDoesNotAllocate pins the detector's allocation
// contract: fed a stationary stream (no detections, but checks firing every
// CheckInterval samples), Observe performs zero allocations. The screens and
// the suffix scratch are allocated once, in NewDetector; the reference
// detector allocates a fresh window copy at every check — the cost the
// incremental path removes.
func TestObserveSteadyStateDoesNotAllocate(t *testing.T) {
	cfg, th := testConfigSmall(t)
	d, err := NewDetector(cfg, th, 20)
	if err != nil {
		t.Fatal(err)
	}
	// A constant stream exactly at the current rate's mean can never cross a
	// threshold: for every candidate, ln P(k) is (m-k)·(ln r - r + 1) with
	// r = λn/λo, and ln r - r + 1 < 0 for all r ≠ 1.
	x := 1 / d.CurrentRate()
	for i := 0; i < 2*cfg.WindowSize; i++ {
		if _, ok := d.Observe(x); ok {
			t.Fatalf("constant stream triggered a detection at warmup sample %d", i)
		}
	}
	if avg := testing.AllocsPerRun(1000, func() {
		if _, ok := d.Observe(x); ok {
			t.Fatal("constant stream triggered a detection")
		}
	}); avg != 0 {
		t.Errorf("steady-state Observe allocated %v times per call, want 0", avg)
	}
}

// TestThresholdSnapshotRoundTrip pins the serialisation contract thrcache
// depends on: Snapshot → RestoreThresholds reproduces every lookup bit for
// bit.
func TestThresholdSnapshotRoundTrip(t *testing.T) {
	cfg, th := testConfigSmall(t)
	snap := th.Snapshot()
	restored, err := RestoreThresholds(snap)
	if err != nil {
		t.Fatal(err)
	}
	if restored.WindowSize() != th.WindowSize() || restored.Confidence() != th.Confidence() {
		t.Errorf("window/confidence not preserved: %d/%v vs %d/%v",
			restored.WindowSize(), restored.Confidence(), th.WindowSize(), th.Confidence())
	}
	if !reflect.DeepEqual(restored.Ratios(), th.Ratios()) {
		t.Errorf("ratios not preserved:\n%v\n%v", restored.Ratios(), th.Ratios())
	}
	for _, lo := range cfg.Rates {
		for _, ln := range cfg.Rates {
			if lo == ln {
				continue
			}
			want, err1 := th.For(lo, ln)
			got, err2 := restored.For(lo, ln)
			if err1 != nil || err2 != nil {
				t.Fatalf("For(%v,%v): %v / %v", lo, ln, err1, err2)
			}
			if got != want {
				t.Errorf("For(%v,%v) = %v after round trip, want exactly %v", lo, ln, got, want)
			}
		}
	}
	// A second snapshot of the restored table must be identical, including
	// slice contents — the idempotence the on-disk format relies on.
	if !reflect.DeepEqual(restored.Snapshot(), snap) {
		t.Error("snapshot not idempotent through restore")
	}
}

// TestRestoreThresholdsRejectsInvalid enumerates malformed snapshots: each
// must be rejected, never silently accepted into a detector.
func TestRestoreThresholdsRejectsInvalid(t *testing.T) {
	valid := ThresholdSet{
		WindowSize: 100,
		Confidence: 0.995,
		Ratios:     []float64{0.5, 2},
		Values:     []float64{3.1, 2.9},
	}
	if _, err := RestoreThresholds(valid); err != nil {
		t.Fatalf("valid snapshot rejected: %v", err)
	}
	mutate := func(f func(*ThresholdSet)) ThresholdSet {
		s := valid
		s.Ratios = append([]float64(nil), valid.Ratios...)
		s.Values = append([]float64(nil), valid.Values...)
		f(&s)
		return s
	}
	cases := map[string]ThresholdSet{
		"tiny window":     mutate(func(s *ThresholdSet) { s.WindowSize = 2 }),
		"bad confidence":  mutate(func(s *ThresholdSet) { s.Confidence = 1.5 }),
		"no ratios":       mutate(func(s *ThresholdSet) { s.Ratios, s.Values = nil, nil }),
		"length mismatch": mutate(func(s *ThresholdSet) { s.Values = s.Values[:1] }),
		"unit ratio":      mutate(func(s *ThresholdSet) { s.Ratios[0] = 1 }),
		"negative ratio":  mutate(func(s *ThresholdSet) { s.Ratios[0] = -2 }),
		"nan ratio":       mutate(func(s *ThresholdSet) { s.Ratios[0] = math.NaN() }),
		"descending":      mutate(func(s *ThresholdSet) { s.Ratios[0], s.Ratios[1] = s.Ratios[1], s.Ratios[0] }),
		"duplicate key":   mutate(func(s *ThresholdSet) { s.Ratios[1] = s.Ratios[0] * (1 + 1e-13) }),
		"nan threshold":   mutate(func(s *ThresholdSet) { s.Values[1] = math.NaN() }),
	}
	for name, s := range cases {
		if _, err := RestoreThresholds(s); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
