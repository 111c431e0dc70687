package mdp

import (
	"math"
	"strings"
	"testing"

	"smartbadge/internal/perfmodel"
	"smartbadge/internal/sa1100"
)

// sa1100Config builds the MDP inputs from the real ladder and an application
// decode rate at maximum frequency.
func sa1100Config(lambda, decodeMax, beta float64, k int) Config {
	proc := sa1100.Default()
	curve := perfmodel.MP3Curve()
	fMax := proc.Max().FrequencyMHz
	mu := make([]float64, proc.NumPoints())
	pw := make([]float64, proc.NumPoints())
	for i, p := range proc.Points() {
		mu[i] = decodeMax * curve.PerfRatio(p.FrequencyMHz/fMax)
		pw[i] = p.ActivePowerW
	}
	return Config{
		Lambda:       lambda,
		Mu:           mu,
		PowerW:       pw,
		IdlePowerW:   proc.IdlePowerW(),
		DelayWeightW: beta,
		QueueCap:     k,
	}
}

func TestConfigValidation(t *testing.T) {
	good := sa1100Config(20, 110, 0.5, 30)
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	mutations := []func(*Config){
		func(c *Config) { c.Lambda = 0 },
		func(c *Config) { c.Mu = nil },
		func(c *Config) { c.Mu = c.Mu[:len(c.Mu)-1] },
		func(c *Config) { c.Mu[2] = c.Mu[1] },
		func(c *Config) { c.PowerW[0] = -1 },
		func(c *Config) { c.PowerW[3] = c.PowerW[4] + 1 },
		func(c *Config) { c.Lambda = c.Mu[len(c.Mu)-1] + 1 },
		func(c *Config) { c.IdlePowerW = -1 },
		func(c *Config) { c.DelayWeightW = -1 },
		func(c *Config) { c.QueueCap = 1 },
	}
	for i, mutate := range mutations {
		cfg := sa1100Config(20, 110, 0.5, 30)
		cfg.Mu = append([]float64(nil), cfg.Mu...)
		cfg.PowerW = append([]float64(nil), cfg.PowerW...)
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("mutation %d: expected error", i)
		}
	}
}

func TestSolveMonotoneSwitchingCurve(t *testing.T) {
	cfg := sa1100Config(25, 110, 0.3, 40)
	p, err := Solve(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for n := 2; n <= cfg.QueueCap; n++ {
		if p.Action[n] < p.Action[n-1] {
			t.Fatalf("switching curve not monotone: action[%d]=%d < action[%d]=%d",
				n, p.Action[n], n-1, p.Action[n-1])
		}
	}
	// It should actually use more than one rung (otherwise the MDP adds
	// nothing over a fixed frequency).
	if p.Action[1] == p.Action[cfg.QueueCap] {
		t.Error("policy uses a single frequency; expected a switching curve")
	}
	if p.Iterations == 0 || p.AvgCostW <= 0 {
		t.Error("implausible solver metadata")
	}
}

func TestDelayWeightExtremes(t *testing.T) {
	// Tiny delay weight: delay is free, so run as slow as sustainability
	// allows at every backlog.
	cheap, err := Solve(sa1100Config(20, 110, 1e-6, 40))
	if err != nil {
		t.Fatal(err)
	}
	// Huge delay weight: backlog is ruinous, so high states run flat out.
	urgent, err := Solve(sa1100Config(20, 110, 100, 40))
	if err != nil {
		t.Fatal(err)
	}
	nA := len(sa1100Config(20, 110, 1, 4).Mu)
	if urgent.Action[40] != nA-1 {
		t.Errorf("urgent policy tops out at %d, want fastest %d", urgent.Action[40], nA-1)
	}
	if cheap.Action[1] > urgent.Action[1] {
		t.Error("cheap-delay policy should start slower than urgent policy")
	}
	// Mean queue under the cheap policy exceeds the urgent policy's.
	lCheap, err := MeanQueueLength(sa1100Config(20, 110, 1e-6, 40), cheap.Action)
	if err != nil {
		t.Fatal(err)
	}
	lUrgent, err := MeanQueueLength(sa1100Config(20, 110, 100, 40), urgent.Action)
	if err != nil {
		t.Fatal(err)
	}
	if lCheap <= lUrgent {
		t.Errorf("queue lengths: cheap %v should exceed urgent %v", lCheap, lUrgent)
	}
}

// The solver's reported average cost is computed by the exact birth-death
// evaluation, so it must beat every fixed-frequency policy on the same
// objective (up to a whisker of numerical tolerance).
func TestOptimalBeatsAllFixedFrequencies(t *testing.T) {
	cfg := sa1100Config(25, 110, 0.4, 40)
	p, err := Solve(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for a := 0; a < len(cfg.Mu); a++ {
		if cfg.Mu[a] <= cfg.Lambda {
			continue // unstable fixed policy: skip (finite K keeps it defined, but allow it anyway)
		}
		fixed, err := EvaluatePolicy(cfg, FixedPolicy(cfg, a))
		if err != nil {
			t.Fatal(err)
		}
		if p.AvgCostW > fixed*(1+1e-9) {
			t.Errorf("optimal cost %v exceeds fixed-frequency[%d] cost %v", p.AvgCostW, a, fixed)
		}
	}
}

// Cross-check value iteration's claimed optimality: perturbing the policy at
// any single state cannot reduce the exact average cost.
func TestLocalOptimality(t *testing.T) {
	cfg := sa1100Config(22, 110, 0.5, 25)
	p, err := Solve(cfg)
	if err != nil {
		t.Fatal(err)
	}
	base, err := EvaluatePolicy(cfg, p.Action)
	if err != nil {
		t.Fatal(err)
	}
	for n := 1; n <= cfg.QueueCap; n++ {
		for a := 0; a < len(cfg.Mu); a++ {
			if a == p.Action[n] {
				continue
			}
			alt := append([]int(nil), p.Action...)
			alt[n] = a
			c, err := EvaluatePolicy(cfg, alt)
			if err != nil {
				t.Fatal(err)
			}
			if c < base*(1-1e-9) {
				t.Fatalf("perturbing state %d to action %d improves cost: %v < %v", n, a, c, base)
			}
		}
	}
}

func TestEvaluatePolicyErrors(t *testing.T) {
	cfg := sa1100Config(20, 110, 0.5, 10)
	if _, err := EvaluatePolicy(cfg, []int{0}); err == nil {
		t.Error("wrong-length policy accepted")
	}
	bad := FixedPolicy(cfg, 0)
	bad[3] = 99
	if _, err := EvaluatePolicy(cfg, bad); err == nil {
		t.Error("out-of-range action accepted")
	}
	if _, err := MeanQueueLength(cfg, []int{0}); err == nil {
		t.Error("wrong-length policy accepted by MeanQueueLength")
	}
}

func TestSolveConvergenceGuard(t *testing.T) {
	cfg := sa1100Config(20, 110, 0.5, 30)
	if _, err := solve(cfg, 3); err == nil || !strings.Contains(err.Error(), "did not converge") {
		t.Errorf("err = %v, want a non-convergence error with 3 iterations", err)
	}
}

// Sanity: with a single sustainable rung, the MDP must agree with the
// analytic M/M/1/K average cost at that rung.
func TestSingleActionMatchesAnalytic(t *testing.T) {
	cfg := Config{
		Lambda:       10,
		Mu:           []float64{25},
		PowerW:       []float64{0.3},
		IdlePowerW:   0.1,
		DelayWeightW: 0.2,
		QueueCap:     60,
	}
	p, err := Solve(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Analytic: ρ=0.4, π_0 = 1-ρ (K large): cost = π_0·P_idle + (1-π_0)·P + β·L.
	rho := 0.4
	l := rho / (1 - rho)
	want := (1-rho)*cfg.IdlePowerW + rho*cfg.PowerW[0] + cfg.DelayWeightW*l
	if math.Abs(p.AvgCostW-want)/want > 1e-3 {
		t.Errorf("avg cost %v, analytic %v", p.AvgCostW, want)
	}
}
