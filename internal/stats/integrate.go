package stats

import "math"

// survivalSteps is the trapezoid step count of SurvivalIntegral, shared with
// SurvivalIntegralBounds, whose error term depends on it.
const survivalSteps = 4000

// SurvivalIntegral computes ∫_a^b (1 − CDF(t)) dt for a distribution on the
// non-negative reals, on a log-spaced grid (idle-time scales span many orders
// of magnitude). b may be +Inf in spirit: pass a large bound; the tail where
// survival < 1e-9 contributes negligibly for the distributions used here.
// Used by the renewal-theory and TISMDP power-management policies, where
// E[min(T,τ) − a | T > a] and residual lifetimes reduce to survival
// integrals.
//
// The grid is a, a·r, a·r², … built by repeated multiplication, with
// r = (b/a)^(1/4000) (a below zero is clamped to 0, and a = 0 starts the
// grid at b·1e-9). Each grid point's survival is evaluated once and carried
// into the next step. SurvivalIntegralBounds brackets the returned value
// from closed forms, which lets callers that only compare integrals (the
// renewal timeout search) skip the 4001 survival evaluations.
func SurvivalIntegral(d Distribution, a, b float64) float64 {
	if b <= a {
		return 0
	}
	if a < 0 {
		a = 0
	}
	surv := func(t float64) float64 { return 1 - d.CDF(t) }
	lo, ratio := survivalGrid(a, b)
	sum := 0.0
	if a <= 0 {
		// Survival ≤ 1, so the [0, b·1e-9] sliver contributes at most b·1e-9;
		// treat it as a rectangle at S(0).
		sum += surv(0) * lo
	}
	t, st := lo, surv(lo)
	for i := 0; i < survivalSteps; i++ {
		next := t * ratio
		sn := surv(next)
		sum += (st + sn) / 2 * (next - t)
		t, st = next, sn
	}
	return sum
}

// survivalGrid returns the first point and the ratio of SurvivalIntegral's
// geometric grid on [a, b], 0 ≤ a < b: the grid starts at a, or at b·1e-9
// when a is 0.
func survivalGrid(a, b float64) (lo, ratio float64) {
	lo = a
	if lo <= 0 {
		lo = b * 1e-9
	}
	return lo, math.Pow(b/lo, 1/float64(survivalSteps))
}

// TailBound returns a time beyond which the distribution's survival mass is
// negligible (< 1e-6), starting the search at from. Used to truncate
// improper survival integrals.
func TailBound(d Distribution, from float64) float64 {
	end := from
	if end < 1 {
		end = 1
	}
	for 1-d.CDF(end) > 1e-6 && end < from+1e6 {
		end = 2*end + 1
	}
	return end
}
