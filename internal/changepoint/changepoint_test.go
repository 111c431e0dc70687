package changepoint

import (
	"math"
	"testing"
	"testing/quick"

	"smartbadge/internal/stats"
)

func testConfig() Config {
	cfg := DefaultConfig([]float64{10, 20, 40, 60})
	cfg.CharacterisationWindows = 1000 // keep tests fast
	return cfg
}

func mustThresholds(t *testing.T, cfg Config) *Thresholds {
	t.Helper()
	ths, err := Characterise(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ths[0]
}

func TestConfigValidation(t *testing.T) {
	good := testConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	mutations := []func(*Config){
		func(c *Config) { c.Rates = []float64{10} },
		func(c *Config) { c.Rates = []float64{10, -5} },
		func(c *Config) { c.Rates = []float64{10, 10} },
		func(c *Config) { c.WindowSize = 5 },
		func(c *Config) { c.CheckInterval = 0 },
		func(c *Config) { c.WindowSize = minWindow - 1 },
		func(c *Config) { c.Confidence = 0.4 },
		func(c *Config) { c.Confidence = 1.0 },
		func(c *Config) { c.CharacterisationWindows = 10 },
		// Non-finite inputs: each used to pass, and a rate crashed
		// characterisation with an out-of-range histogram index.
		func(c *Config) { c.Rates = []float64{10, math.NaN(), 20} },
		func(c *Config) { c.Rates = []float64{1, math.Inf(1)} },
		func(c *Config) { c.Rates = []float64{1e-300, 1e300} },
		func(c *Config) { c.Confidence = math.NaN() },
		func(c *Config) { c.Confidence = math.Inf(1) },
	}
	for i, mutate := range mutations {
		cfg := testConfig()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("mutation %d: expected error", i)
		}
	}
}

func TestGeometricRates(t *testing.T) {
	rates, err := GeometricRates(5, 80, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(rates) != 5 {
		t.Fatalf("len = %d", len(rates))
	}
	if rates[0] != 5 || rates[4] != 80 {
		t.Errorf("endpoints = %v, %v", rates[0], rates[4])
	}
	// Constant ratio between neighbours.
	r0 := rates[1] / rates[0]
	for i := 1; i < len(rates)-1; i++ {
		if math.Abs(rates[i+1]/rates[i]-r0) > 1e-9 {
			t.Errorf("ratio not constant at %d", i)
		}
	}
	nan, inf := math.NaN(), math.Inf(1)
	for _, bad := range [][3]float64{{0, 10, 4}, {10, 5, 4}, {5, 80, 1},
		{nan, 10, 4}, {1, nan, 4}, {1, inf, 4}, {-inf, 1, 4}, {1e-300, 1e300, 4}} {
		if _, err := GeometricRates(bad[0], bad[1], int(bad[2])); err == nil {
			t.Errorf("GeometricRates(%v) accepted", bad)
		}
	}
}

func TestSnapRate(t *testing.T) {
	rates := []float64{10, 20, 40, 80}
	cases := []struct{ x, want float64 }{
		{10, 10}, {13, 10}, {15, 20}, {28, 20}, {29, 40}, {200, 80}, {-1, 10}, {0, 10},
	}
	for _, c := range cases {
		if got := SnapRate(rates, c.x); got != c.want {
			t.Errorf("SnapRate(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

// Equation 4 must agree with the brute-force product form of Equation 3.
func TestLogLikelihoodMatchesBruteForce(t *testing.T) {
	rng := stats.NewRNG(1)
	values := make([]float64, 30)
	for i := range values {
		values[i] = rng.Exp(15)
	}
	oldRate, newRate := 15.0, 30.0
	bruteAt := func(k int) float64 {
		// ln [ Π_{j>k} λn e^{-λn x} / Π_{j>k} λo e^{-λo x} ]
		lp := 0.0
		for j := k; j < len(values); j++ {
			lp += math.Log(newRate) - newRate*values[j] - (math.Log(oldRate) - oldRate*values[j])
		}
		return lp
	}
	best, bestK := logLikelihoodMax(values, oldRate, newRate)
	wantBest, wantK := math.Inf(-1), -1
	for k := 0; k < len(values); k++ {
		if lp := bruteAt(k); lp > wantBest {
			wantBest, wantK = lp, k
		}
	}
	if math.Abs(best-wantBest) > 1e-9 {
		t.Errorf("statistic = %v, brute force = %v", best, wantBest)
	}
	if bestK != wantK {
		t.Errorf("argmax k = %d, brute force = %d", bestK, wantK)
	}
}

func TestCharacteriseRatioSymmetryKeys(t *testing.T) {
	cfg := testConfig()
	th := mustThresholds(t, cfg)
	// All pair ratios must be characterised.
	for _, lo := range cfg.Rates {
		for _, ln := range cfg.Rates {
			if lo == ln {
				continue
			}
			if _, err := th.For(lo, ln); err != nil {
				t.Errorf("missing threshold %v -> %v: %v", lo, ln, err)
			}
		}
	}
	if _, err := th.For(10, 33); err == nil {
		t.Error("uncharacterised ratio should error")
	}
	if th.WindowSize() != cfg.WindowSize || th.Confidence() != cfg.Confidence {
		t.Error("threshold metadata wrong")
	}
	if len(th.Ratios()) == 0 {
		t.Error("no ratios recorded")
	}
}

func TestThresholdsPositive(t *testing.T) {
	th := mustThresholds(t, testConfig())
	// Under the null, ln P_max of the best fit fluctuates above 0 but the
	// 99.5 % quantile should be clearly positive and finite.
	for _, r := range th.Ratios() {
		v := th.byRatio[ratioKey(r)]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("ratio %v: threshold %v not finite", r, v)
		}
		if v <= 0 {
			t.Errorf("ratio %v: threshold %v should be positive", r, v)
		}
	}
}

func TestNewDetectorValidation(t *testing.T) {
	cfg := testConfig()
	th := mustThresholds(t, cfg)
	if _, err := NewDetector(cfg, nil, 20); err == nil {
		t.Error("nil thresholds accepted")
	}
	if _, err := NewDetector(cfg, th, 0); err == nil {
		t.Error("zero initial rate accepted")
	}
	bad := cfg
	bad.WindowSize = 50
	if _, err := NewDetector(bad, th, 20); err == nil {
		t.Error("mismatched window size accepted")
	}
	d, err := NewDetector(cfg, th, 22)
	if err != nil {
		t.Fatal(err)
	}
	if d.CurrentRate() != 20 {
		t.Errorf("initial rate snapped to %v, want 20", d.CurrentRate())
	}
}

func TestDetectorFindsStepChange(t *testing.T) {
	cfg := testConfig()
	th := mustThresholds(t, cfg)
	d, err := NewDetector(cfg, th, 10)
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(99)
	// 300 samples at 10/s: with a 99.5 % threshold the occasional false
	// alarm is expected behaviour; it must stay rare.
	falseAlarms := 0
	for i := 0; i < 300; i++ {
		if _, ok := d.Observe(rng.Exp(10)); ok {
			falseAlarms++
			d.SetRate(10)
		}
	}
	if falseAlarms > 3 {
		t.Fatalf("too many false alarms in the stationary phase: %d", falseAlarms)
	}
	// Switch to 60/s; the detector may step through an intermediate grid
	// rate, but must settle on 60 within ~1.5 windows.
	var det Detection
	for i := 0; i < 150 && d.CurrentRate() != 60; i++ {
		if got, ok := d.Observe(rng.Exp(60)); ok {
			det = got
		}
	}
	if d.CurrentRate() != 60 {
		t.Fatalf("step 10 -> 60 not detected within 150 samples (stuck at %v)", d.CurrentRate())
	}
	if det.NewRate != 60 {
		t.Errorf("final detection rate %v, want 60", det.NewRate)
	}
	if det.Statistic <= det.Threshold {
		t.Error("statistic must exceed threshold at detection")
	}
	if det.MLERate < 30 || det.MLERate > 120 {
		t.Errorf("MLE rate %v wildly off 60", det.MLERate)
	}
}

// The paper's headline: 99.5 % confidence means ≤ 0.5 % false positives per
// check under the null. Run a long stationary stream and count detections.
func TestDetectorFalsePositiveRate(t *testing.T) {
	cfg := testConfig()
	cfg.CharacterisationWindows = 4000
	th := mustThresholds(t, cfg)
	d, err := NewDetector(cfg, th, 20)
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(1234)
	const n = 20000
	falsePositives := 0
	checks := 0
	for i := 0; i < n; i++ {
		if _, ok := d.Observe(rng.Exp(20)); ok {
			falsePositives++
			d.SetRate(20) // restore the truth and keep streaming
		}
		if d.Observed()%cfg.CheckInterval == 0 {
			checks++
		}
	}
	// Each check tests 3 candidates at ~0.5 % each; a loose bound of 4 % of
	// checks guards against gross miscalibration while tolerating the
	// union over candidates and estimation noise.
	maxAllowed := int(0.04 * float64(checks))
	if falsePositives > maxAllowed {
		t.Errorf("false positives = %d over %d checks (> %d allowed)", falsePositives, checks, maxAllowed)
	}
}

func TestDetectorDetectionLatency(t *testing.T) {
	// Figure 10: for a 10 -> 60 fr/s step the change-point detector reacts
	// within ~10 frames. Grid snapping means the very first estimate can
	// land one grid step short when the early post-change draws run slow,
	// so we measure (a) latency until the estimate moves within one grid
	// step of the truth (>= 40) and (b) eventual settling at 60 once the
	// long-run empirical rate asserts itself.
	cfg := testConfig()
	cfg.CheckInterval = 1
	th := mustThresholds(t, cfg)

	latencies := []int{}
	const runs = 20
	settled := 0
	for seed := uint64(0); seed < runs; seed++ {
		d, err := NewDetector(cfg, th, 10)
		if err != nil {
			t.Fatal(err)
		}
		rng := stats.NewRNG(1000 + seed)
		for i := 0; i < 200; i++ {
			if _, ok := d.Observe(rng.Exp(10)); ok {
				d.SetRate(10) // discard warm-up false alarms
			}
		}
		lat := -1
		for i := 1; i <= 400; i++ {
			d.Observe(rng.Exp(60))
			if lat < 0 && d.CurrentRate() >= 40 {
				lat = i
			}
		}
		if lat > 0 {
			latencies = append(latencies, lat)
		}
		if d.CurrentRate() == 60 {
			settled++
		}
	}
	if len(latencies) < runs {
		t.Fatalf("reacted in only %d/%d runs", len(latencies), runs)
	}
	sum := 0
	for _, l := range latencies {
		sum += l
	}
	mean := float64(sum) / float64(len(latencies))
	if mean > 15 {
		t.Errorf("mean reaction latency = %v samples, want <= 15 (paper: ~10)", mean)
	}
	if settled < runs-2 {
		t.Errorf("settled at 60 in only %d/%d runs after 400 samples", settled, runs)
	}
}

func TestDetectorSetRate(t *testing.T) {
	cfg := testConfig()
	th := mustThresholds(t, cfg)
	d, _ := NewDetector(cfg, th, 10)
	rng := stats.NewRNG(3)
	for i := 0; i < 50; i++ {
		d.Observe(rng.Exp(10))
	}
	d.SetRate(43)
	if d.CurrentRate() != 40 {
		t.Errorf("rate after SetRate(43) = %v, want snap to 40", d.CurrentRate())
	}
}

func TestDetectorPanicsOnInvalidSample(t *testing.T) {
	cfg := testConfig()
	th := mustThresholds(t, cfg)
	d, _ := NewDetector(cfg, th, 10)
	for i, bad := range []float64{-1, math.NaN(), math.Inf(1)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			d.Observe(bad)
		}()
	}
}

func TestDetectorNoCheckBeforeMinWindow(t *testing.T) {
	cfg := testConfig()
	th := mustThresholds(t, cfg)
	d, _ := NewDetector(cfg, th, 10)
	rng := stats.NewRNG(8)
	// Fewer than minWindow samples, even at a wildly different rate,
	// must not trigger a check.
	for i := 0; i < minWindow-1; i++ {
		if _, ok := d.Observe(rng.Exp(60)); ok {
			t.Fatalf("detection before minWindow at sample %d", i)
		}
	}
}

// Time-rescaling invariance: scaling every sample by c and both rates by 1/c
// leaves the likelihood statistic unchanged — the property that lets
// characterisation be cached per rate *ratio*.
func TestStatisticScaleInvarianceProperty(t *testing.T) {
	rng := stats.NewRNG(404)
	prop := func(scaleSeed float64) bool {
		c := 0.1 + math.Abs(math.Mod(scaleSeed, 10))
		n := 40
		values := make([]float64, n)
		scaled := make([]float64, n)
		for i := range values {
			values[i] = rng.Exp(20)
			scaled[i] = values[i] * c
		}
		s1, k1 := logLikelihoodMax(values, 20, 45)
		s2, k2 := logLikelihoodMax(scaled, 20/c, 45/c)
		return math.Abs(s1-s2) < 1e-9*(1+math.Abs(s1)) && k1 == k2
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Higher confidence demands a higher threshold for the same ratio.
func TestThresholdMonotoneInConfidence(t *testing.T) {
	prev := math.Inf(-1)
	for _, conf := range []float64{0.9, 0.99, 0.999} {
		cfg := testConfig()
		cfg.Confidence = conf
		cfg.CharacterisationWindows = 3000
		th := mustThresholds(t, cfg)
		v, err := th.For(10, 60)
		if err != nil {
			t.Fatal(err)
		}
		if v < prev {
			t.Errorf("threshold at confidence %v (%v) below lower-confidence value (%v)", conf, v, prev)
		}
		prev = v
	}
}

// A larger rate step is detected at least as fast, on average.
func TestDetectionFasterForLargerSteps(t *testing.T) {
	cfg := testConfig()
	cfg.CheckInterval = 1
	th := mustThresholds(t, cfg)
	meanLatency := func(newRate float64) float64 {
		total, runs := 0, 0
		for seed := uint64(0); seed < 12; seed++ {
			d, err := NewDetector(cfg, th, 10)
			if err != nil {
				t.Fatal(err)
			}
			rng := stats.NewRNG(7000 + seed)
			for i := 0; i < 150; i++ {
				if _, ok := d.Observe(rng.Exp(10)); ok {
					d.SetRate(10)
				}
			}
			for i := 1; i <= 300; i++ {
				d.Observe(rng.Exp(newRate))
				if d.CurrentRate() != 10 {
					total += i
					runs++
					break
				}
			}
		}
		if runs == 0 {
			t.Fatalf("rate %v never detected", newRate)
		}
		return float64(total) / float64(runs)
	}
	small := meanLatency(20) // 2x step
	large := meanLatency(60) // 6x step
	if large > small {
		t.Errorf("6x step latency %v exceeds 2x step latency %v", large, small)
	}
}

func TestCharacteriseDeterministic(t *testing.T) {
	cfg := testConfig()
	a := mustThresholds(t, cfg)
	b := mustThresholds(t, cfg)
	for _, r := range a.Ratios() {
		if a.byRatio[ratioKey(r)] != b.byRatio[ratioKey(r)] {
			t.Errorf("ratio %v: thresholds differ between identical runs", r)
		}
	}
}

// TestCharacteriseWorkerCountInvariant is the parallel layer's acceptance
// criterion: the threshold table must be bit-for-bit identical at Workers=1
// and Workers=8 for the same seed, across several seeds.
func TestCharacteriseWorkerCountInvariant(t *testing.T) {
	for _, seed := range []uint64{1, 2, 0x5eed, 987654321} {
		serial := testConfig()
		serial.Seed = seed
		serial.Workers = 1
		wide := serial
		wide.Workers = 8
		a := mustThresholds(t, serial)
		b := mustThresholds(t, wide)
		if len(a.Ratios()) != len(b.Ratios()) {
			t.Fatalf("seed %d: ratio sets differ", seed)
		}
		for _, r := range a.Ratios() {
			av, bv := a.byRatio[ratioKey(r)], b.byRatio[ratioKey(r)]
			if av != bv {
				t.Errorf("seed %d, ratio %v: Workers=1 threshold %v != Workers=8 threshold %v",
					seed, r, av, bv)
			}
		}
	}
}

func TestConfigRejectsNegativeWorkers(t *testing.T) {
	cfg := testConfig()
	cfg.Workers = -1
	if err := cfg.Validate(); err == nil {
		t.Error("negative workers accepted")
	}
}
