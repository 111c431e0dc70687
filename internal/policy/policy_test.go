package policy

import (
	"math"
	"testing"

	"smartbadge/internal/changepoint"
	"smartbadge/internal/perfmodel"
	"smartbadge/internal/sa1100"
	"smartbadge/internal/stats"
)

func TestIdealEstimatorTracksTruth(t *testing.T) {
	e := NewIdeal(10)
	if e.Rate() != 10 || e.Name() != "ideal" {
		t.Fatal("initial state wrong")
	}
	r, changed := e.Observe(0.05, 10)
	if changed || r != 10 {
		t.Error("no truth change should not change estimate")
	}
	r, changed = e.Observe(0.02, 60)
	if !changed || r != 60 {
		t.Errorf("truth change missed: r=%v changed=%v", r, changed)
	}
	e.Reset(25)
	if e.Rate() != 25 {
		t.Error("reset failed")
	}
	// Zero truth (unknown) keeps the estimate.
	if r, changed = e.Observe(0.1, 0); changed || r != 25 {
		t.Error("zero truth should be ignored")
	}
}

func TestExpAverageConverges(t *testing.T) {
	e := NewExpAverage(0.05, 10)
	rng := stats.NewRNG(1)
	for i := 0; i < 2000; i++ {
		e.Observe(rng.Exp(40), 0)
	}
	// E[1/x] for exponential diverges, so the EWMA of instantaneous rates
	// overshoots the true rate; it must at least move decisively toward it.
	if e.Rate() < 30 {
		t.Errorf("exp average rate = %v, want to have left 10 toward 40", e.Rate())
	}
}

func TestExpAverageUnstable(t *testing.T) {
	// The Figure 10 point: the EWMA estimate oscillates far more than the
	// change-point estimate under a stationary stream.
	e := NewExpAverage(0.05, 40)
	rng := stats.NewRNG(2)
	var m stats.Moments
	for i := 0; i < 5000; i++ {
		r, _ := e.Observe(rng.Exp(40), 0)
		if i > 500 {
			m.Add(r)
		}
	}
	if cv := m.StdDev() / m.Mean(); cv < 0.10 {
		t.Errorf("exp average CV = %v; the instability the paper reports should exceed 0.10", cv)
	}
}

func TestExpAverageClampsZeroSample(t *testing.T) {
	e := NewExpAverage(0.5, 10)
	r, _ := e.Observe(0, 0)
	if math.IsInf(r, 0) || math.IsNaN(r) {
		t.Errorf("rate = %v after zero sample", r)
	}
}

func TestExpAveragePanicsOnBadGain(t *testing.T) {
	for _, g := range []float64{0, -0.1, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("gain %v: expected panic", g)
				}
			}()
			NewExpAverage(g, 10)
		}()
	}
}

func newChangePointEstimator(t *testing.T, initial float64) *ChangePoint {
	t.Helper()
	cfg := changepoint.DefaultConfig([]float64{10, 20, 40, 60})
	cfg.CharacterisationWindows = 800
	ths, err := changepoint.Characterise(cfg)
	if err != nil {
		t.Fatal(err)
	}
	det, err := changepoint.NewDetector(cfg, ths[0], initial)
	if err != nil {
		t.Fatal(err)
	}
	return NewChangePoint(det)
}

func TestChangePointEstimatorDetects(t *testing.T) {
	e := newChangePointEstimator(t, 10)
	rng := stats.NewRNG(3)
	for i := 0; i < 200; i++ {
		e.Observe(rng.Exp(10), 0)
	}
	for i := 0; i < 300; i++ {
		e.Observe(rng.Exp(60), 0)
	}
	if e.Rate() != 60 {
		t.Errorf("rate = %v, want 60", e.Rate())
	}
	if e.Detections == 0 {
		t.Error("no detections counted")
	}
	e.Reset(20)
	if e.Rate() != 20 {
		t.Error("reset failed")
	}
	if e.Name() != "changepoint" {
		t.Error("name wrong")
	}
}

func TestFixedEstimator(t *testing.T) {
	e := NewFixed(30)
	r, changed := e.Observe(0.5, 99)
	if changed || r != 30 {
		t.Error("fixed estimator moved")
	}
	e.Reset(12)
	if e.Rate() != 12 {
		t.Error("reset failed")
	}
	if e.Name() != "fixed" {
		t.Error("name wrong")
	}
}

func newTestController(t *testing.T, alwaysMax bool) *Controller {
	t.Helper()
	c, err := NewController(
		sa1100.Default(), perfmodel.MPEGCurve(), 0.1,
		NewIdeal(20), NewIdeal(44), alwaysMax)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestControllerValidation(t *testing.T) {
	proc := sa1100.Default()
	curve := perfmodel.MPEGCurve()
	id := NewIdeal(1)
	cases := []func() (*Controller, error){
		func() (*Controller, error) { return NewController(nil, curve, 0.1, id, id, false) },
		func() (*Controller, error) { return NewController(proc, nil, 0.1, id, id, false) },
		func() (*Controller, error) { return NewController(proc, curve, 0, id, id, false) },
		func() (*Controller, error) { return NewController(proc, curve, 0.1, nil, id, false) },
		func() (*Controller, error) { return NewController(proc, curve, 0.1, id, nil, false) },
	}
	for i, f := range cases {
		if _, err := f(); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestControllerStartsAtMax(t *testing.T) {
	c := newTestController(t, false)
	if c.Current() != c.Proc.Max() {
		t.Error("controller should start at the fastest point")
	}
}

func TestControllerSelectsMinimumSufficientFrequency(t *testing.T) {
	c := newTestController(t, false)
	// λU = 20, target 0.1 s → required λD = 30. With decode 44 fr/s at max,
	// perf = 30/44 = 0.682; MPEG curve: freq ratio ≈ (1-M)/(1/p - M) with
	// M = 0.08 → 0.92/(1.467-0.08) = 0.663 → 146.7 MHz → rung 147.5.
	op, changed := c.OnArrival(0.05, 20)
	if !changed {
		// Estimates match initial values, so reselect may not fire via
		// OnArrival; force it.
		c.ResetRates(20, 44)
		op = c.Current()
	}
	if op.FrequencyMHz != 147.5 {
		t.Errorf("selected %v MHz, want 147.5", op.FrequencyMHz)
	}
	// The selected point must satisfy the delay target...
	perfSel := perfmodel.MPEGCurve().PerfRatio(op.FrequencyMHz / c.Proc.Max().FrequencyMHz)
	if mu := perfSel * 44; mu < 30 {
		t.Errorf("selected point sustains only %v fr/s, need 30", mu)
	}
	// ...and the next rung down must not.
	idx := c.Proc.IndexOf(op.FrequencyMHz)
	below := c.Proc.Point(idx - 1)
	perfBelow := perfmodel.MPEGCurve().PerfRatio(below.FrequencyMHz / c.Proc.Max().FrequencyMHz)
	if mu := perfBelow * 44; mu >= 30 {
		t.Errorf("rung below also sustains %v fr/s; selection not minimal", mu)
	}
}

func TestControllerUnachievableDemandRunsFlatOut(t *testing.T) {
	c := newTestController(t, false)
	c.ResetRates(43, 44) // required λD = 53 > 44 at max: flat out
	if c.Current() != c.Proc.Max() {
		t.Errorf("overload should select max, got %v", c.Current())
	}
	if got := c.RequiredFrequencyMHz(); got != c.Proc.Max().FrequencyMHz {
		t.Errorf("required frequency %v, want fmax", got)
	}
}

func TestControllerAlwaysMax(t *testing.T) {
	c := newTestController(t, true)
	c.ResetRates(5, 100) // trivially light load
	if c.Current() != c.Proc.Max() {
		t.Error("AlwaysMax controller left the top point")
	}
}

func TestControllerRateDropLowersFrequency(t *testing.T) {
	c := newTestController(t, false)
	c.ResetRates(20, 44)
	high := c.Current()
	// Arrival rate drops sharply: frequency must drop too.
	op, changed := c.OnArrival(0.2, 5)
	if !changed {
		t.Fatal("rate drop did not reselect")
	}
	if op.FrequencyMHz >= high.FrequencyMHz {
		t.Errorf("frequency did not drop: %v -> %v", high.FrequencyMHz, op.FrequencyMHz)
	}
	if c.Reconfigurations == 0 {
		t.Error("reconfiguration not counted")
	}
}

func TestControllerServiceRateChange(t *testing.T) {
	c := newTestController(t, false)
	c.ResetRates(20, 44)
	before := c.Current()
	// Decoding becomes much cheaper (e.g. easier content): lower frequency.
	op, changed := c.OnService(0.01, 100)
	if !changed {
		t.Fatal("service-rate change did not reselect")
	}
	if op.FrequencyMHz >= before.FrequencyMHz {
		t.Errorf("frequency should drop when decode gets cheaper: %v -> %v",
			before.FrequencyMHz, op.FrequencyMHz)
	}
}

func TestControllerVoltageFollowsFrequency(t *testing.T) {
	c := newTestController(t, false)
	c.ResetRates(5, 100)
	op := c.Current()
	if op.VoltageV != c.Proc.Point(c.Proc.IndexOf(op.FrequencyMHz)).VoltageV {
		t.Error("voltage does not match the ladder entry for the frequency")
	}
	if op.VoltageV >= c.Proc.Max().VoltageV {
		t.Error("light load should run below maximum voltage")
	}
}

func TestControllerHysteresisDampsDithering(t *testing.T) {
	// Drive the controller with an estimate oscillating across a rung
	// boundary; hysteresis must cut the reconfiguration count while never
	// dropping below the demanded rung.
	run := func(h float64) (reconfigs int) {
		c, err := NewController(sa1100.Default(), perfmodel.MPEGCurve(), 0.1,
			NewIdeal(20), NewIdeal(44), false)
		if err != nil {
			t.Fatal(err)
		}
		c.Hysteresis = h
		rng := stats.NewRNG(77)
		for i := 0; i < 2000; i++ {
			// Arrival estimate jitters ±8% around 20/s.
			rate := 20 * (0.92 + 0.16*rng.Float64())
			op, _ := c.OnArrival(1/rate, rate)
			// The selected point must always sustain the *current* demand.
			required := rate + 1/c.TargetDelay
			sustained := perfmodel.MPEGCurve().PerfRatio(op.FrequencyMHz/221.2) * 44
			if sustained < required-1e-9 {
				t.Fatalf("h=%v: selected %v sustains %v < required %v", h, op, sustained, required)
			}
		}
		return c.Reconfigurations
	}
	noH := run(0)
	withH := run(0.10)
	if withH >= noH {
		t.Errorf("hysteresis did not reduce reconfigurations: %d vs %d", withH, noH)
	}
	if noH < 10 {
		t.Fatalf("test workload not dithering enough to be meaningful: %d reconfigs", noH)
	}
}

// Property: for any arrival/service rates the selected point sustains the
// required service rate whenever that is achievable at all.
func TestControllerDelayGuaranteeProperty(t *testing.T) {
	c := newTestController(t, false)
	curve := perfmodel.MPEGCurve()
	fMax := c.Proc.Max().FrequencyMHz
	for i := 0; i < 500; i++ {
		rng := stats.NewRNG(uint64(i))
		lambdaU := rng.Uniform(1, 40)
		lambdaD := rng.Uniform(lambdaU+1, 90)
		c.ResetRates(lambdaU, lambdaD)
		op := c.Current()
		required := lambdaU + 1/c.TargetDelay
		achievable := lambdaD >= required
		sustained := curve.PerfRatio(op.FrequencyMHz/fMax) * lambdaD
		if achievable && sustained < required-1e-9 {
			t.Fatalf("λU=%v λD=%v: selected %v sustains %v < required %v",
				lambdaU, lambdaD, op, sustained, required)
		}
		if !achievable && op != c.Proc.Max() {
			t.Fatalf("λU=%v λD=%v: unachievable demand should run flat out", lambdaU, lambdaD)
		}
	}
}
