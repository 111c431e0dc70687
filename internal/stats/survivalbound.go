package stats

import "math"

// Allowances of SurvivalIntegralBounds beyond its trapezoid term, each
// several times what it covers.
const (
	// gridDrift bounds the relative distance between SurvivalIntegral's last
	// grid point and b. That point is reached by 4000 rounded multiplications
	// by a ratio that math.Pow returns to within a few ulp, so it lies within
	// about 5·4000·2⁻⁵³ of b; gridDrift is 4000·2⁻⁴⁸.
	gridDrift = survivalSteps * 0x1p-48
	// roundRel, relative to the integral, covers summing 4001 non-negative
	// terms (under 4001·2⁻⁵³) and the error of the closed forms themselves
	// (a few ulp, or about shape·2⁻⁵³ for a Pareto tail that starts above
	// its scale).
	roundRel = 0x1p-30
	// roundAbs, per unit of b, covers survival values evaluated with an
	// absolute error of a few ulp (1 − CDF cancels where CDF nears 1, and a
	// mixture rounds each weighted term) and CDF arguments rounded by a
	// division or an offset subtraction.
	roundAbs = 0x1p-46
)

// SurvivalIntegralBounds returns an interval [lo, hi] that contains the value
// SurvivalIntegral(d, a, b) returns. It evaluates d's survival integral in
// closed form, which costs a few math calls instead of 4001 CDF evaluations.
// ok is false, and there is no bracket, when d is not an Exponential, a
// Pareto, a Shifted with a non-negative offset, or a *Mixture of those, or
// when the bracket is not finite.
//
// The half-width adds four terms. The first is the trapezoid error: on a
// geometric grid lo = t₀ < … < t_N of ratio r, the trapezoid sum of a
// non-increasing S lies between its right and left Riemann sums, the right
// sum is at most ∫S, and summation by parts bounds the gap between the two
// sums, so
//
//	|trapezoid − ∫_lo^b S| ≤ (r−1)/2 · (lo·S(lo) + ∫_lo^b S).
//
// The bracket allows twice that. The bound is nearly tight when S is a step,
// as FitPareto's fallback for an all-equal sample is. The other three terms
// are the [0, lo] sliver that SurvivalIntegral charges as a rectangle when
// a ≤ 0 (at most lo), the drift of the last grid point away from b
// (gridDrift), and rounding (roundRel, roundAbs).
func SurvivalIntegralBounds(d Distribution, a, b float64) (lo, hi float64, ok bool) {
	if b <= a {
		return 0, 0, true
	}
	if a < 0 {
		a = 0
	}
	area, ok := survivalArea(d, a, b)
	if !ok {
		return 0, 0, false
	}
	start, ratio := survivalGrid(a, b)
	sliver := 0.0
	if a <= 0 {
		sliver = start
	}
	// 1 − CDF can round below zero where a mixture's CDF rounds above 1.
	trapezoid := (ratio - 1) * (start*math.Max(0, 1-d.CDF(start)) + area)
	width := trapezoid + sliver + gridDrift*b + roundRel*area + roundAbs*b
	lo, hi = area-width, area+width
	if math.IsNaN(lo) || math.IsInf(lo, 0) || math.IsNaN(hi) || math.IsInf(hi, 0) {
		return 0, 0, false
	}
	return lo, hi, true
}

// survivalArea returns ∫_a^b (1 − CDF(t)) dt for 0 ≤ a < b in closed form,
// or false when d is not a family handled here. Parameters for which the
// survival function could rise (a non-positive rate or shape, a negative
// weight, a negative offset that puts mass below zero) also give false.
func survivalArea(d Distribution, a, b float64) (float64, bool) {
	switch d := d.(type) {
	case Exponential:
		if !(d.Rate > 0) {
			return 0, false
		}
		return math.Exp(-d.Rate*a) * -math.Expm1(-d.Rate*(b-a)) / d.Rate, true
	case Pareto:
		if !(d.Scale > 0 && d.Shape > 0) {
			return 0, false
		}
		flat, from := flatBelow(d.Scale, a, b)
		if from >= b {
			return flat, true
		}
		// ∫_from^b (x_m/t)^α dt in a form that neither cancels near α = 1
		// nor overflows for a step-like α.
		k := d.Shape - 1
		l := math.Log1p((b - from) / from)
		if k == 0 {
			return flat + d.Scale*l, true
		}
		return flat + d.Scale*math.Pow(d.Scale/from, k)*-math.Expm1(-k*l)/k, true
	case Shifted:
		if !(d.Offset >= 0) {
			return 0, false
		}
		flat, from := flatBelow(d.Offset, a, b)
		if from >= b {
			return flat, true
		}
		rest, ok := survivalArea(d.Base, from-d.Offset, b-d.Offset)
		return flat + rest, ok
	case *Mixture:
		sum := 0.0
		for i, w := range d.Weights {
			v, ok := survivalArea(d.Components[i], a, b)
			if !ok || w < 0 {
				return 0, false
			}
			sum += w / d.total * v
		}
		return sum, true
	}
	return 0, false
}

// flatBelow splits [a, b] at x, below which survival is 1: it returns the
// length of the part below x and where the rest begins.
func flatBelow(x, a, b float64) (flat, from float64) {
	if a >= x {
		return 0, a
	}
	return math.Min(b, x) - a, x
}
