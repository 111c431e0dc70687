// Package dpm implements the dynamic power management half of the paper: the
// decision, made upon every entry into the idle state, of whether and when to
// transition the SmartBadge into a low-power state (standby or off), per
// Sections 1 and 3 and the companion renewal-theory/TISMDP work the paper
// builds on ([2, 3] in its bibliography).
//
// The key structural facts the paper states are that (a) the only decision
// point is the entry into the idle state, (b) idle-time distributions have
// heavy, non-exponential tails, which makes the timing of the transition
// matter, and (c) the optimal policies derived from renewal theory and from
// the time-indexed semi-Markov decision process both reduce, for a single
// sleep state, to "wait for a characteristic time, then sleep" — a timeout
// whose value minimises the expected energy of an idle period.
//
// This package provides that policy family:
//
//   - AlwaysOn: never transitions (the "no DPM" rows of Table 5).
//   - FixedTimeout: the classic deterministic baseline.
//   - RenewalTimeout: numerically minimises the expected energy per idle
//     period over the fitted idle-time distribution — the decision structure
//     of the paper's stochastic policies.
//   - Oracle: knows each idle period's length in advance and sleeps exactly
//     when beneficial (the unbeatable reference).
//
// Policies decide at idle entry; the simulator executes the transitions and
// charges transition energy and wake-up latency.
//
// The renewal fit (OptimalTimeout) is screened. Each expected energy takes
// two 4000-step survival integrals, so the fit first brackets the energy at
// every one of its 43 grid timeouts from the closed-form survival integrals
// of stats.SurvivalIntegralBounds, and integrates numerically only at the
// timeouts whose lower bound does not exceed the smallest upper bound: 17 or
// 18 of 43 on the fleet's exponential idle models, about 12 on its
// exponential-plus-Pareto ones. Skipped timeouts cannot hold the minimum, and
// the numeric energies are the only ones compared, so the chosen timeout is
// the exhaustive search's, bit for bit.
package dpm

import (
	"fmt"
	"math"

	"smartbadge/internal/device"
	"smartbadge/internal/stats"
)

// Decision is a DPM policy's answer at idle entry.
type Decision struct {
	// Sleep reports whether the device should transition at all.
	Sleep bool
	// Timeout is how long to remain idle before transitioning (seconds).
	Timeout float64
	// Target is the low-power state to enter (Standby or Off).
	Target device.PowerState
	// DeepenAfter, when positive, deepens the sleep to DeepenTarget after
	// this much additional time asleep — the two-level standby-then-off
	// structure the SmartBadge's state set supports.
	DeepenAfter  float64
	DeepenTarget device.PowerState
}

// Policy decides low-power transitions. Implementations must be
// deterministic given their observation history.
type Policy interface {
	// Decide is called when the device enters the idle state. oracleIdle
	// carries the true length of the idle period that is starting; only
	// Oracle consults it (it exists so the unbeatable reference policy can be
	// driven through the same interface).
	Decide(oracleIdle float64) Decision
	// ObserveIdle reports the length of a completed idle period, letting
	// adaptive policies re-fit their model.
	ObserveIdle(duration float64)
	// Name identifies the policy in reports.
	Name() string
}

// Costs bundles the hardware constants a timeout optimisation needs.
type Costs struct {
	// IdlePowerW is the badge draw while idle (every component idle).
	IdlePowerW float64
	// SleepPowerW is the badge draw in the target low-power state.
	SleepPowerW float64
	// TransitionEnergyJ is the total energy of one sleep+wake round trip
	// (entering the state plus waking from it).
	TransitionEnergyJ float64
	// WakeLatencyS is the time from the wake signal until the badge is
	// usable; the performance penalty of sleeping.
	WakeLatencyS float64
}

// Validate checks the cost table.
func (c Costs) Validate() error {
	if c.IdlePowerW <= 0 {
		return fmt.Errorf("dpm: idle power must be positive, got %v", c.IdlePowerW)
	}
	if c.SleepPowerW < 0 || c.SleepPowerW >= c.IdlePowerW {
		return fmt.Errorf("dpm: sleep power %v must be in [0, idle power %v)", c.SleepPowerW, c.IdlePowerW)
	}
	if c.TransitionEnergyJ < 0 || c.WakeLatencyS < 0 {
		return fmt.Errorf("dpm: negative transition energy or wake latency")
	}
	return nil
}

// BreakEven returns the idle duration beyond which sleeping saves energy:
// the classic T_be = E_transition / (P_idle − P_sleep).
func (c Costs) BreakEven() float64 {
	return c.TransitionEnergyJ / (c.IdlePowerW - c.SleepPowerW)
}

// CostsForBadge derives Costs from the badge's component table for the given
// target state: transition energy is approximated as active-power draw over
// the wake-up latency (all components power up in parallel while nothing
// useful runs), which matches how the simulator charges it.
func CostsForBadge(b *device.Badge, target device.PowerState) Costs {
	wake := b.WakeLatency(target)
	return Costs{
		IdlePowerW:        b.TotalPower(device.Idle),
		SleepPowerW:       b.TotalPower(target),
		TransitionEnergyJ: b.TotalPower(device.Active) * wake,
		WakeLatencyS:      wake,
	}
}

// AlwaysOn never sleeps.
type AlwaysOn struct{}

// Decide implements Policy.
func (AlwaysOn) Decide(float64) Decision { return Decision{} }

// ObserveIdle implements Policy.
func (AlwaysOn) ObserveIdle(float64) {}

// Name implements Policy.
func (AlwaysOn) Name() string { return "always-on" }

// FixedTimeout sleeps after a fixed delay.
type FixedTimeout struct {
	TimeoutS float64
	Target   device.PowerState
}

// NewFixedTimeout validates and returns a fixed-timeout policy.
func NewFixedTimeout(timeout float64, target device.PowerState) (FixedTimeout, error) {
	if timeout < 0 {
		return FixedTimeout{}, fmt.Errorf("dpm: negative timeout %v", timeout)
	}
	if target != device.Standby && target != device.Off {
		return FixedTimeout{}, fmt.Errorf("dpm: target must be standby or off, got %v", target)
	}
	return FixedTimeout{TimeoutS: timeout, Target: target}, nil
}

// Decide implements Policy.
func (p FixedTimeout) Decide(float64) Decision {
	return Decision{Sleep: true, Timeout: p.TimeoutS, Target: p.Target}
}

// ObserveIdle implements Policy.
func (FixedTimeout) ObserveIdle(float64) {}

// Name implements Policy.
func (p FixedTimeout) Name() string {
	return fmt.Sprintf("timeout(%.2gs->%s)", p.TimeoutS, p.Target)
}

// Oracle knows each idle period's length and sleeps immediately when the
// period exceeds break-even (adjusted for the wake-up spent inside it).
type Oracle struct {
	Costs  Costs
	Target device.PowerState
}

// NewOracle validates and returns the oracle policy.
func NewOracle(costs Costs, target device.PowerState) (*Oracle, error) {
	if err := costs.Validate(); err != nil {
		return nil, err
	}
	if target != device.Standby && target != device.Off {
		return nil, fmt.Errorf("dpm: target must be standby or off, got %v", target)
	}
	return &Oracle{Costs: costs, Target: target}, nil
}

// Decide implements Policy.
func (p *Oracle) Decide(oracleIdle float64) Decision {
	if oracleIdle > p.Costs.BreakEven() {
		return Decision{Sleep: true, Timeout: 0, Target: p.Target}
	}
	return Decision{}
}

// ObserveIdle implements Policy.
func (*Oracle) ObserveIdle(float64) {}

// Name implements Policy.
func (*Oracle) Name() string { return "oracle" }

// ExpectedEnergyPerIdle returns the expected energy of one idle period drawn
// from dist under a sleep-after-timeout policy:
//
//	E(τ) = P_idle·E[min(T, τ)] + P_sleep·E[(T − τ)⁺] + E_tr·P(T > τ)
//
// computed by numeric integration of the survival function. This is the
// objective the renewal-theory policy minimises.
func ExpectedEnergyPerIdle(dist stats.Distribution, c Costs, timeout float64) float64 {
	if timeout < 0 {
		timeout = 0
	}
	// E[min(T,τ)] = ∫₀^τ S(t) dt;  E[(T−τ)⁺] = ∫_τ^∞ S(t) dt, with the
	// improper integral truncated where the survival mass is negligible.
	tailEnd := stats.TailBound(dist, timeout)
	eMin := stats.SurvivalIntegral(dist, 0, timeout)
	ePlus := stats.SurvivalIntegral(dist, timeout, tailEnd)
	pSleep := 1 - dist.CDF(timeout)
	return c.IdlePowerW*eMin + c.SleepPowerW*ePlus + c.TransitionEnergyJ*pSleep
}

// Quantile returns the q-quantile of a distribution by bisection on its CDF
// (q in [0,1)). Used to convert a performance constraint into a timeout
// bound.
func Quantile(dist stats.Distribution, q float64) float64 {
	if q <= 0 {
		return 0
	}
	if q >= 1 {
		panic("dpm: quantile must be < 1")
	}
	lo, hi := 0.0, 1.0
	for dist.CDF(hi) < q && hi < 1e12 {
		hi *= 2
	}
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if dist.CDF(mid) < q {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// ConstrainedTimeout returns the minimum-energy timeout subject to the
// paper's performance constraint, expressed as the largest acceptable
// probability that an idle period ends with a wake-up penalty:
// P(T > τ) ≤ maxWakeProb. The constraint bounds the timeout from below by
// the (1 − maxWakeProb)-quantile of the idle distribution; the returned
// timeout is the energy optimum if it already satisfies the constraint, and
// the quantile bound otherwise (expected energy is monotone between the
// unconstrained optimum and the bound, so the boundary is optimal).
func ConstrainedTimeout(dist stats.Distribution, c Costs, maxWakeProb float64) (float64, error) {
	if dist == nil {
		return 0, fmt.Errorf("dpm: nil idle-time distribution")
	}
	if err := c.Validate(); err != nil {
		return 0, err
	}
	if maxWakeProb <= 0 || maxWakeProb > 1 {
		return 0, fmt.Errorf("dpm: max wake probability must be in (0, 1], got %v", maxWakeProb)
	}
	opt := OptimalTimeout(dist, c)
	if maxWakeProb == 1 {
		return opt, nil
	}
	bound := Quantile(dist, 1-maxWakeProb)
	if opt >= bound {
		return opt, nil
	}
	return bound, nil
}

// RenewalTimeout is the stochastic-optimal single-threshold policy: it
// minimises ExpectedEnergyPerIdle over a timeout grid for the given idle-time
// distribution. With the paper's heavy-tailed (Pareto) idle times the optimal
// timeout is finite and typically close to the break-even time.
type RenewalTimeout struct {
	costs   Costs
	target  device.PowerState
	timeout float64

	// Adaptive refitting.
	adaptive  bool
	observed  []float64
	refitEach int
}

// NewRenewalTimeout computes the optimal timeout for the given idle-time
// distribution. If adaptEvery > 0, the policy refits a Pareto model to the
// observed idle periods every adaptEvery observations and re-optimises.
func NewRenewalTimeout(dist stats.Distribution, costs Costs, target device.PowerState, adaptEvery int) (*RenewalTimeout, error) {
	if err := costs.Validate(); err != nil {
		return nil, err
	}
	if target != device.Standby && target != device.Off {
		return nil, fmt.Errorf("dpm: target must be standby or off, got %v", target)
	}
	if dist == nil {
		return nil, fmt.Errorf("dpm: nil idle-time distribution")
	}
	p := &RenewalTimeout{
		costs:     costs,
		target:    target,
		adaptive:  adaptEvery > 0,
		refitEach: adaptEvery,
	}
	p.timeout = OptimalTimeout(dist, costs)
	return p, nil
}

// OptimalTimeout minimises ExpectedEnergyPerIdle over a 43-point timeout
// grid, τ = 0 then T_be/100·1.25^k while that is at most 100·T_be, and
// returns the first grid point with the lowest expected energy. It evaluates
// exactly only the points whose energy bracket (from
// stats.SurvivalIntegralBounds) reaches down to the smallest upper bound.
// Every skipped point's energy lies above that bound, so the result is the
// exhaustive search's. A distribution with no bracket, or costs that do not
// validate, is searched exhaustively.
func OptimalTimeout(dist stats.Distribution, c Costs) float64 {
	be := c.BreakEven()
	if be <= 0 {
		return 0 // free transitions: sleep immediately
	}
	grid := timeoutGrid(be)
	keep := screenTimeouts(dist, c, grid)
	bestTau, bestE, seeded := 0.0, 0.0, false
	for i, tau := range grid {
		if keep != nil && !keep[i] {
			continue
		}
		if e := ExpectedEnergyPerIdle(dist, c, tau); !seeded || e < bestE {
			bestE, bestTau, seeded = e, tau, true
		}
	}
	return bestTau
}

// timeoutGrid returns OptimalTimeout's candidate timeouts for break-even
// time be, built by repeated multiplication.
func timeoutGrid(be float64) []float64 {
	grid := []float64{0}
	for tau := be / 100; tau <= be*100; tau *= 1.25 {
		grid = append(grid, tau)
	}
	return grid
}

// screenTimeouts marks the grid points whose expected energy may be the
// minimum: those whose lower bound is at or below the smallest upper bound.
// It returns nil, meaning evaluate every point, when some point has no
// bracket or the costs do not validate (the bounds combine by monotonicity,
// which needs non-negative coefficients).
func screenTimeouts(dist stats.Distribution, c Costs, grid []float64) []bool {
	if c.Validate() != nil {
		return nil
	}
	lows := make([]float64, len(grid))
	minHigh := math.Inf(1)
	for i, tau := range grid {
		lo, hi, ok := energyBounds(dist, c, tau)
		if !ok {
			return nil
		}
		lows[i] = lo
		minHigh = math.Min(minHigh, hi)
	}
	keep := make([]bool, len(grid))
	for i, lo := range lows {
		keep[i] = lo <= minHigh
	}
	return keep
}

// energyBounds brackets ExpectedEnergyPerIdle(dist, c, tau) by evaluating it
// on the survival-integral brackets. The result is widened by 2⁻⁴⁰ of its
// magnitude, so that rounding in the sums (or fused multiply-adds) can never
// put the exact energy outside it.
func energyBounds(dist stats.Distribution, c Costs, tau float64) (lo, hi float64, ok bool) {
	tailEnd := stats.TailBound(dist, tau)
	minLo, minHi, ok1 := stats.SurvivalIntegralBounds(dist, 0, tau)
	plusLo, plusHi, ok2 := stats.SurvivalIntegralBounds(dist, tau, tailEnd)
	if !ok1 || !ok2 {
		return 0, 0, false
	}
	sleep := c.TransitionEnergyJ * (1 - dist.CDF(tau))
	lo = c.IdlePowerW*minLo + c.SleepPowerW*plusLo + sleep
	hi = c.IdlePowerW*minHi + c.SleepPowerW*plusHi + sleep
	lo -= math.Abs(lo) * 0x1p-40
	hi += math.Abs(hi) * 0x1p-40
	return lo, hi, !math.IsNaN(lo) && !math.IsInf(lo, 0) && !math.IsNaN(hi) && !math.IsInf(hi, 0)
}

// Timeout returns the policy's current timeout.
func (p *RenewalTimeout) Timeout() float64 { return p.timeout }

// Decide implements Policy.
func (p *RenewalTimeout) Decide(float64) Decision {
	return Decision{Sleep: true, Timeout: p.timeout, Target: p.target}
}

// ObserveIdle implements Policy.
func (p *RenewalTimeout) ObserveIdle(duration float64) {
	if !p.adaptive || duration <= 0 {
		return
	}
	p.observed = append(p.observed, duration)
	if len(p.observed)%p.refitEach != 0 {
		return
	}
	fit, err := stats.FitPareto(p.observed)
	if err != nil {
		return
	}
	p.timeout = OptimalTimeout(fit, p.costs)
}

// Name implements Policy.
func (p *RenewalTimeout) Name() string {
	if p.adaptive {
		return "renewal-adaptive"
	}
	return "renewal"
}
