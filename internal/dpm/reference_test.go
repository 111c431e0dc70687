package dpm

import (
	"math"

	"smartbadge/internal/stats"
)

// The exhaustive timeout search as it stood before the screen, kept verbatim
// (only renamed) as the equivalence oracle for OptimalTimeout: it evaluates
// every grid point with a trapezoid integral that evaluates each survival
// value twice. Exported from a test file so the external screen tests can
// drive it.

// referenceSurvivalIntegral is the unscreened stats.SurvivalIntegral.
func referenceSurvivalIntegral(d stats.Distribution, a, b float64) float64 {
	if b <= a {
		return 0
	}
	if a < 0 {
		a = 0
	}
	surv := func(t float64) float64 { return 1 - d.CDF(t) }
	const steps = 4000
	sum := 0.0
	lo := a
	if lo <= 0 {
		// Survival ≤ 1, so the [0, b·1e-9] sliver contributes at most b·1e-9;
		// treat it as a rectangle at S(0).
		lo = b * 1e-9
		sum += surv(0) * lo
	}
	ratio := math.Pow(b/lo, 1/float64(steps))
	t := lo
	for i := 0; i < steps; i++ {
		next := t * ratio
		sum += (surv(t) + surv(next)) / 2 * (next - t)
		t = next
	}
	return sum
}

// ReferenceExpectedEnergyPerIdle is ExpectedEnergyPerIdle on
// referenceSurvivalIntegral.
func ReferenceExpectedEnergyPerIdle(dist stats.Distribution, c Costs, timeout float64) float64 {
	if timeout < 0 {
		timeout = 0
	}
	// E[min(T,τ)] = ∫₀^τ S(t) dt;  E[(T−τ)⁺] = ∫_τ^∞ S(t) dt, with the
	// improper integral truncated where the survival mass is negligible.
	tailEnd := stats.TailBound(dist, timeout)
	eMin := referenceSurvivalIntegral(dist, 0, timeout)
	ePlus := referenceSurvivalIntegral(dist, timeout, tailEnd)
	pSleep := 1 - dist.CDF(timeout)
	return c.IdlePowerW*eMin + c.SleepPowerW*ePlus + c.TransitionEnergyJ*pSleep
}

// ReferenceOptimalTimeout is the exhaustive search over every grid point.
func ReferenceOptimalTimeout(dist stats.Distribution, c Costs) float64 {
	be := c.BreakEven()
	if be <= 0 {
		return 0 // free transitions: sleep immediately
	}
	bestTau := 0.0
	bestE := ReferenceExpectedEnergyPerIdle(dist, c, 0)
	tau := be / 100
	for tau <= be*100 {
		if e := ReferenceExpectedEnergyPerIdle(dist, c, tau); e < bestE {
			bestE, bestTau = e, tau
		}
		tau *= 1.25
	}
	return bestTau
}
