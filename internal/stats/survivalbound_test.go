package stats

import (
	"fmt"
	"math"
	"testing"
)

// boundCase is one family draw: a distribution plus the point where its
// survival leaves 1 (a Pareto scale or a Shifted offset; 0 for an
// exponential), so that intervals can be made to straddle it.
type boundCase struct {
	d    Distribution
	kink float64
}

// TestSurvivalIntegralBoundsContainTrapezoid checks that the bracket holds
// what SurvivalIntegral returns for every supported family over randomized
// intervals: from 0, straddling a Pareto scale or a Shifted offset, with b/a
// up to 1e12, and nearly empty. It also checks that the trapezoid allowance
// is needed: the worst case must use more than half of the proven
// (r−1)/2·(lo·S(lo) + ∫S) term, so a bracket with half that term (or none)
// fails here, and no case may need more than the whole proven term.
func TestSurvivalIntegralBoundsContainTrapezoid(t *testing.T) {
	r := NewRNG(17)
	shapes := []float64{0.5, 1, 1 + 1e-9, 1.5, 3.5, 1e6}
	logU := func(lo, hi float64) float64 { return math.Pow(10, lo+(hi-lo)*r.Float64()) }
	exponential := func() Exponential { return NewExponential(logU(-1, 3)) }
	pareto := func() Pareto { return NewPareto(logU(-3, 1), shapes[r.Intn(len(shapes))]) }
	families := map[string]func() boundCase{
		"exponential": func() boundCase { return boundCase{exponential(), 0} },
		"pareto": func() boundCase {
			p := pareto()
			return boundCase{p, p.Scale}
		},
		"shifted": func() boundCase {
			off := logU(-3, 1)
			if r.Float64() < 0.5 {
				return boundCase{Shifted{Offset: off, Base: exponential()}, off}
			}
			p := pareto()
			return boundCase{Shifted{Offset: off, Base: p}, off + p.Scale}
		},
		"mixture": func() boundCase {
			p := pareto()
			return boundCase{NewMixture(
				[]float64{logU(0, 5), logU(0, 2)},
				[]Distribution{exponential(), p}), p.Scale}
		},
		"nested": func() boundCase {
			p := pareto()
			off := logU(-3, 0)
			inner := NewMixture([]float64{1, 3}, []Distribution{p, exponential()})
			return boundCase{Shifted{Offset: off, Base: NewMixture(
				[]float64{2, 1}, []Distribution{inner, Shifted{Offset: 0, Base: exponential()}})}, off + p.Scale}
		},
	}
	worst, worstAt := 0.0, ""
	for _, name := range []string{"exponential", "pareto", "shifted", "mixture", "nested"} {
		for i := 0; i < 120; i++ {
			c := families[name]()
			x := c.kink
			if x <= 0 {
				x = logU(-3, 1)
			}
			intervals := [][2]float64{
				{0, logU(-3, 4)},
				{0, x * logU(0, 2)},
				{x * (0.2 + 0.8*r.Float64()), x * logU(0, 3)},
			}
			a := logU(-4, 2)
			intervals = append(intervals,
				[2]float64{a, a * logU(0, 12)},
				[2]float64{a, a * (1 + logU(-15, -6))})
			for _, iv := range intervals {
				a, b := iv[0], iv[1]
				where := fmt.Sprintf("%s %v on [%v, %v]", name, c.d, a, b)
				got := SurvivalIntegral(c.d, a, b)
				lo, hi, ok := SurvivalIntegralBounds(c.d, a, b)
				if !ok {
					t.Fatalf("%s: no bracket", where)
				}
				if !(lo <= got && got <= hi) {
					t.Fatalf("%s: SurvivalIntegral = %v outside [%v, %v]", where, got, lo, hi)
				}
				if need := trapezoidShare(c.d, a, b, got); need > worst {
					worst, worstAt = need, where
				}
			}
		}
	}
	t.Logf("worst case uses %.3f of the proven trapezoid term: %s", worst, worstAt)
	if worst <= 0.5 || worst > 1 {
		t.Errorf("worst case uses %.3f of the proven trapezoid term (%s), want (0.5, 1]", worst, worstAt)
	}
}

// trapezoidShare returns how much of the proven (r−1)/2·(lo·S(lo) + ∫S)
// term the error of got needs after the bracket's other allowances.
func trapezoidShare(d Distribution, a, b, got float64) float64 {
	area, _ := survivalArea(d, a, b)
	start, ratio := survivalGrid(a, b)
	sliver := 0.0
	if a <= 0 {
		sliver = start
	}
	proven := (ratio - 1) / 2 * (start*math.Max(0, 1-d.CDF(start)) + area)
	rest := sliver + gridDrift*b + roundRel*area + roundAbs*b
	if proven <= rest {
		return 0 // rounding dominates; the share is not meaningful
	}
	return (math.Abs(got-area) - rest) / proven
}

func TestSurvivalIntegralBoundsEdges(t *testing.T) {
	e := NewExponential(3)
	if lo, hi, ok := SurvivalIntegralBounds(e, 2, 2); !ok || lo != 0 || hi != 0 {
		t.Errorf("empty interval: [%v, %v] ok=%v, want [0, 0] ok", lo, hi, ok)
	}
	if lo, hi, ok := SurvivalIntegralBounds(e, -4, 0.5); !ok || !(lo <= SurvivalIntegral(e, -4, 0.5) && SurvivalIntegral(e, -4, 0.5) <= hi) {
		t.Errorf("negative a: [%v, %v] ok=%v does not hold %v", lo, hi, ok, SurvivalIntegral(e, -4, 0.5))
	}
	none := map[string]Distribution{
		"uniform":             NewUniform(0, 1),
		"deterministic":       Deterministic{Value: 1},
		"mixture of uniform":  NewMixture([]float64{1, 1}, []Distribution{e, NewUniform(0, 1)}),
		"negative offset":     Shifted{Offset: -1, Base: e},
		"zero rate":           Exponential{},
		"zero shape":          Pareto{Scale: 1},
		"negative weight":     &Mixture{Weights: []float64{2, -1}, Components: []Distribution{e, e}, total: 1},
		"mixture, zero total": &Mixture{Weights: []float64{1}, Components: []Distribution{e}},
	}
	for name, d := range none {
		if _, _, ok := SurvivalIntegralBounds(d, 0, 1); ok {
			t.Errorf("%s: got a bracket, want none", name)
		}
	}
	if _, _, ok := SurvivalIntegralBounds(e, 0, math.Inf(1)); ok {
		t.Error("infinite b: got a bracket, want none")
	}
}
