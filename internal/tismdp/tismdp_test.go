package tismdp

import (
	"math"
	"testing"

	"smartbadge/internal/device"
	"smartbadge/internal/dpm"
	"smartbadge/internal/stats"
)

func testCosts() dpm.Costs {
	return dpm.Costs{
		IdlePowerW:        1.24,
		SleepPowerW:       0.048,
		TransitionEnergyJ: 0.106,
		WakeLatencyS:      0.04,
	}
}

func TestSolveValidation(t *testing.T) {
	good := Config{Idle: stats.NewPareto(0.5, 1.8), Costs: testCosts(), Target: device.Standby}
	if _, err := Solve(good); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	cases := []func(*Config){
		func(c *Config) { c.Idle = nil },
		func(c *Config) { c.Costs = dpm.Costs{} },
		func(c *Config) { c.Target = device.Active },
		func(c *Config) { c.WakePenaltyJ = -1 },
	}
	for i, mutate := range cases {
		cfg := good
		mutate(&cfg)
		if _, err := Solve(cfg); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestDefaultEdges(t *testing.T) {
	edges := DefaultEdges(0.1)
	if edges[0] != 0 {
		t.Error("edges must start at 0")
	}
	for i := 1; i < len(edges); i++ {
		if edges[i] <= edges[i-1] {
			t.Fatal("edges not ascending")
		}
	}
	if edges[1] > 0.1/50 {
		t.Error("grid should resolve well below break-even")
	}
	if edges[len(edges)-1] < 0.1*500 {
		t.Error("grid should extend well above break-even")
	}
	if got := DefaultEdges(0); len(got) < 2 || got[0] != 0 {
		t.Error("degenerate break-even should still give a valid grid")
	}
}

// Exponential idle times have constant hazard, so the optimal decision is
// the same at every time index: all-sleep or all-stay.
func TestExponentialIdleGivesUniformActions(t *testing.T) {
	c := testCosts()
	// Mean idle 10 s >> break-even: sleeping pays; actions should be sleep
	// everywhere (in the region the idle period can actually reach).
	long, err := Solve(Config{Idle: stats.NewExponential(0.1), Costs: c, Target: device.Standby})
	if err != nil {
		t.Fatal(err)
	}
	if math.IsInf(long.Timeout(), 1) {
		t.Error("long exponential idle: policy never sleeps")
	}
	if long.Timeout() > c.BreakEven() {
		t.Errorf("long exponential idle: timeout %v should be at/near zero", long.Timeout())
	}
	// Mean idle 10 ms << break-even: sleeping never pays.
	short, err := Solve(Config{Idle: stats.NewExponential(100), Costs: c, Target: device.Standby})
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(short.Timeout(), 1) {
		t.Errorf("short exponential idle: policy sleeps at %v, want never", short.Timeout())
	}
}

// When the hazard is decreasing over the entire grid (Pareto with its scale
// below the first positive edge), once sleeping becomes attractive it stays
// attractive: the action vector is a threshold (stay*, sleep*).
func TestDecreasingHazardGivesThresholdPolicy(t *testing.T) {
	p, err := Solve(Config{
		Idle:   stats.NewPareto(0.0005, 1.5), // scale below the grid start
		Costs:  testCosts(),
		Target: device.Standby,
	})
	if err != nil {
		t.Fatal(err)
	}
	actions := p.Actions()
	seenSleep := false
	for i, a := range actions {
		if seenSleep && !a {
			t.Fatalf("non-threshold policy: stay at index %d after sleeping earlier", i)
		}
		if a {
			seenSleep = true
		}
	}
	if !seenSleep {
		t.Error("heavy-tailed idle should eventually sleep")
	}
}

// A non-monotone hazard (zero below the Pareto scale, a spike just above it)
// produces a genuinely non-threshold optimal policy — the structural
// advantage the time-indexed formulation has over a single timeout: sleep
// immediately while no arrival is possible yet, reconsider once the hazard
// spikes.
func TestNonMonotoneHazardGivesNonThresholdPolicy(t *testing.T) {
	p, err := Solve(Config{
		Idle:   stats.NewPareto(0.05, 1.5), // scale inside the grid
		Costs:  testCosts(),
		Target: device.Standby,
	})
	if err != nil {
		t.Fatal(err)
	}
	actions := p.Actions()
	edges := p.Edges()
	// It must sleep in the dead zone before the scale (no arrival can come).
	if !actions[0] {
		t.Error("should sleep at t=0: the idle period cannot end before the Pareto scale")
	}
	// And there must be at least one later "stay" index (the hazard spike),
	// i.e. the action vector is not a simple threshold.
	nonThreshold := false
	for i := 1; i < len(actions); i++ {
		if !actions[i] && edges[i] >= 0.05 {
			nonThreshold = true
			break
		}
	}
	if !nonThreshold {
		t.Log("actions:", actions)
		t.Error("expected a non-threshold action vector for the non-monotone hazard")
	}
}

// Cross-validation against the renewal-theory policy: both optimise the same
// expected-energy objective, so their timeouts must agree up to grid
// resolution, and the TISMDP expected cost must not exceed the renewal
// policy's expected energy.
func TestAgreesWithRenewalTheory(t *testing.T) {
	c := testCosts()
	for _, dist := range []stats.Distribution{
		stats.NewPareto(0.05, 1.5),
		stats.NewPareto(0.3, 1.7),
		stats.Shifted{Offset: 0.2, Base: stats.NewPareto(1, 2)},
		stats.NewExponential(0.5),
	} {
		p, err := Solve(Config{Idle: dist, Costs: c, Target: device.Standby})
		if err != nil {
			t.Fatalf("%s: %v", dist, err)
		}
		renewalTau := dpm.OptimalTimeout(dist, c)
		tau := p.Timeout()
		// Expected energy of the TISMDP timeout vs the renewal timeout,
		// evaluated with the same objective.
		eT := dpm.ExpectedEnergyPerIdle(dist, c, tau)
		eR := dpm.ExpectedEnergyPerIdle(dist, c, renewalTau)
		if eT > eR*1.05 {
			t.Errorf("%s: TISMDP timeout %v (E=%v) clearly worse than renewal %v (E=%v)",
				dist, tau, eT, renewalTau, eR)
		}
		// And the DP's own value should be consistent with the evaluated
		// energy of its timeout (both compute the same expectation).
		if math.Abs(p.ExpectedCost()-eT) > 0.05*eT+1e-6 {
			t.Errorf("%s: DP value %v vs evaluated energy %v", dist, p.ExpectedCost(), eT)
		}
	}
}

func TestWakePenaltyDelaysSleep(t *testing.T) {
	c := testCosts()
	dist := stats.NewPareto(0.05, 1.5)
	base, err := Solve(Config{Idle: dist, Costs: c, Target: device.Standby})
	if err != nil {
		t.Fatal(err)
	}
	pen, err := Solve(Config{Idle: dist, Costs: c, Target: device.Standby, WakePenaltyJ: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if !(pen.Timeout() > base.Timeout()) {
		t.Errorf("wake penalty should delay sleeping: %v -> %v", base.Timeout(), pen.Timeout())
	}
}

func TestAdaptiveRefits(t *testing.T) {
	c := testCosts()
	// Prior: long idle periods (sleep early). Reality: short ones.
	prior := Config{Idle: stats.NewPareto(10, 1.5), Costs: c, Target: device.Standby}
	a, err := NewAdaptive(prior, 50)
	if err != nil {
		t.Fatal(err)
	}
	if a.Name() != "tismdp-adaptive" {
		t.Error("name wrong")
	}
	before := a.Timeout()
	rng := stats.NewRNG(5)
	short := stats.NewExponential(30) // mean 33 ms, far below break-even
	for i := 0; i < 200; i++ {
		a.ObserveIdle(short.Sample(rng))
	}
	after := a.Timeout()
	// With purely short idle periods the refit model says sleeping never
	// pays: the timeout must move up (possibly to +Inf).
	if !(after > before) {
		t.Errorf("adaptive timeout did not move up: %v -> %v", before, after)
	}
	if d := a.Decide(0); d.Sleep && d.Timeout <= before {
		t.Errorf("decision still sleeps early: %+v", d)
	}
	// Now feed a heavy tail: the policy must come back down.
	heavy := stats.NewPareto(5, 1.5)
	for i := 0; i < 300; i++ {
		if i%3 == 0 {
			a.ObserveIdle(heavy.Sample(rng))
		} else {
			a.ObserveIdle(short.Sample(rng))
		}
	}
	if math.IsInf(a.Timeout(), 1) {
		t.Error("policy never re-learned to sleep on the heavy tail")
	}
	// Validation.
	if _, err := NewAdaptive(prior, 5); err == nil {
		t.Error("tiny refit interval accepted")
	}
	if _, err := NewAdaptive(Config{}, 50); err == nil {
		t.Error("invalid prior accepted")
	}
	a.ObserveIdle(0) // ignored, must not panic
}

func TestFitIdleModel(t *testing.T) {
	rng := stats.NewRNG(9)
	var obs []float64
	for i := 0; i < 100; i++ {
		obs = append(obs, rng.Exp(25))
	}
	for i := 0; i < 10; i++ {
		obs = append(obs, 5+rng.Pareto(5, 2))
	}
	m, ok := fitIdleModel(obs, 0.1)
	if !ok {
		t.Fatal("fit failed")
	}
	// The fitted mixture must put most probability mass below the split.
	if c := m.CDF(0.1); c < 0.7 {
		t.Errorf("CDF(split) = %v, want bulk below split", c)
	}
	// Too few observations: no fit.
	if _, ok := fitIdleModel([]float64{0.01, 0.02}, 0.1); ok {
		t.Error("fit succeeded on 2 samples")
	}
	// Degenerate split falls back to a default.
	if _, ok := fitIdleModel(obs, 0); !ok {
		t.Error("zero split should still fit")
	}
}

func TestDecideAndName(t *testing.T) {
	p, err := Solve(Config{Idle: stats.NewPareto(0.5, 1.5), Costs: testCosts(), Target: device.Off})
	if err != nil {
		t.Fatal(err)
	}
	d := p.Decide(0)
	if !d.Sleep || d.Target != device.Off || d.Timeout != p.Timeout() {
		t.Errorf("decision = %+v", d)
	}
	p.ObserveIdle(1) // no-op, must not panic
	if p.Name() != "tismdp" {
		t.Error("name wrong")
	}
	if len(p.Edges()) != len(p.Actions()) {
		t.Error("edges/actions length mismatch")
	}
	// Never-sleep variant.
	never, err := Solve(Config{Idle: stats.NewExponential(100), Costs: testCosts(), Target: device.Standby})
	if err != nil {
		t.Fatal(err)
	}
	if never.Decide(0).Sleep {
		t.Error("never-sleep policy decided to sleep")
	}
}
