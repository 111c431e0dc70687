// Package tismdp implements the Time-Indexed Semi-Markov Decision Process
// formulation of dynamic power management — the second of the two stochastic
// models the paper builds on (its reference [3], "Dynamic Power Management
// for Portable Systems") and the one Figure 7 illustrates: because real
// idle-time distributions are not exponential, the idle state must be
// expanded with a time index (how long the system has already been idle),
// and the decision "transition to the low-power state or keep waiting" is
// re-evaluated at every time index.
//
// For a single sleep state the optimisation is a finite-horizon dynamic
// program over the time-indexed idle states. With the idle period length T
// distributed per a general distribution and the index edges
// 0 = t_0 < t_1 < … < t_n, the cost-to-go of the state "idle for t_i and
// still no arrival" is
//
//	V(i) = min( sleepNow(i), wait(i) )
//	sleepNow(i) = E_tr + penalty + P_sleep·E[T − t_i | T > t_i]
//	wait(i)     = P_idle·E[min(T, t_{i+1}) − t_i | T > t_i]
//	              + P(T > t_{i+1} | T > t_i) · V(i+1)
//
// where E_tr is the sleep+wake transition energy and penalty is an optional
// performance-cost weight per wake-up (the knob that trades energy for the
// paper's performance constraint). All conditional expectations reduce to
// survival integrals. The optimal action vector is exposed directly; because
// sleeping is absorbing, executing the policy means sleeping at the first
// index whose action is "sleep", so the policy also reduces to an optimal
// timeout — which for renewal-type cost structures agrees with the
// renewal-theory policy of package dpm (the tests cross-validate the two).
package tismdp

import (
	"fmt"
	"math"

	"smartbadge/internal/device"
	"smartbadge/internal/dpm"
	"smartbadge/internal/stats"
)

// Config parameterises the solver.
type Config struct {
	// Idle is the idle-period length distribution.
	Idle stats.Distribution
	// Costs are the hardware constants (idle/sleep power, transition energy,
	// wake latency).
	Costs dpm.Costs
	// Target is the low-power state the policy transitions to.
	Target device.PowerState
	// WakePenaltyJ is an additional cost charged per wake-up, expressing the
	// performance constraint as an energy-equivalent price. 0 optimises for
	// energy alone.
	WakePenaltyJ float64
}

// DefaultEdges builds the time-index grid Solve uses: 0 plus 60 log-spaced
// points from breakEven/100 to breakEven·1000.
func DefaultEdges(breakEven float64) []float64 {
	if breakEven <= 0 {
		return []float64{0, 1e-3}
	}
	const n = 60
	edges := make([]float64, 0, n+1)
	edges = append(edges, 0)
	lo, hi := breakEven/100, breakEven*1000
	ratio := math.Pow(hi/lo, 1/float64(n-1))
	t := lo
	for i := 0; i < n; i++ {
		edges = append(edges, t)
		t *= ratio
	}
	return edges
}

// Policy is the solved time-indexed policy. It implements dpm.Policy.
type Policy struct {
	cfg     Config
	edges   []float64
	actions []bool // actions[i]: sleep upon reaching edges[i]?
	values  []float64
	timeout float64 // first sleep edge; +Inf if the policy never sleeps
}

// Solve runs the dynamic program and returns the optimal policy.
func Solve(cfg Config) (*Policy, error) {
	if cfg.Idle == nil {
		return nil, fmt.Errorf("tismdp: nil idle distribution")
	}
	if err := cfg.Costs.Validate(); err != nil {
		return nil, err
	}
	if cfg.Target != device.Standby && cfg.Target != device.Off {
		return nil, fmt.Errorf("tismdp: target must be standby or off, got %v", cfg.Target)
	}
	if cfg.WakePenaltyJ < 0 {
		return nil, fmt.Errorf("tismdp: negative wake penalty")
	}
	edges := DefaultEdges(cfg.Costs.BreakEven())

	n := len(edges)
	dist := cfg.Idle
	c := cfg.Costs
	surv := func(t float64) float64 { return 1 - dist.CDF(t) }
	// relTail truncates the residual integral where the survival has decayed
	// to a negligible fraction of the conditioning survival S(a) — an
	// absolute cutoff would zero out residuals deep in the tail, where the
	// conditional expectation still matters.
	relTail := func(a float64) float64 {
		sa := surv(a)
		if sa <= 0 {
			return a
		}
		end := a
		if end < 1 {
			end = 1
		}
		limit := a*1e9 + 1e9
		for surv(end) > 1e-7*sa && end < limit {
			end = 2*end + 1
		}
		return end
	}

	// residual(i) = E[T − t_i | T > t_i] = ∫_{t_i}^∞ S / S(t_i).
	residual := func(i int) float64 {
		s := surv(edges[i])
		if s <= 0 {
			return 0
		}
		return stats.SurvivalIntegral(dist, edges[i], relTail(edges[i])) / s
	}
	sleepNow := func(i int) float64 {
		return c.TransitionEnergyJ + cfg.WakePenaltyJ + c.SleepPowerW*residual(i)
	}

	values := make([]float64, n)
	actions := make([]bool, n)
	// Terminal state: at the last edge, either sleep now or stay awake for
	// the remainder of the idle period.
	stayForever := c.IdlePowerW * residual(n-1)
	sn := sleepNow(n - 1)
	if sn < stayForever {
		values[n-1], actions[n-1] = sn, true
	} else {
		values[n-1], actions[n-1] = stayForever, false
	}
	// Backward induction.
	for i := n - 2; i >= 0; i-- {
		si := surv(edges[i])
		var wait float64
		if si <= 0 {
			// The idle period cannot have lasted this long; value is moot.
			wait = 0
		} else {
			expAwake := stats.SurvivalIntegral(dist, edges[i], edges[i+1]) / si
			pNext := surv(edges[i+1]) / si
			wait = c.IdlePowerW*expAwake + pNext*values[i+1]
		}
		sn := sleepNow(i)
		if sn < wait {
			values[i], actions[i] = sn, true
		} else {
			values[i], actions[i] = wait, false
		}
	}

	p := &Policy{cfg: cfg, edges: edges, actions: actions, values: values, timeout: math.Inf(1)}
	for i, sleep := range actions {
		if sleep {
			p.timeout = edges[i]
			break
		}
	}
	return p, nil
}

// Timeout returns the effective timeout: the first time index at which the
// policy sleeps (+Inf if it never does).
func (p *Policy) Timeout() float64 { return p.timeout }

// Edges returns the time-index grid (a copy).
func (p *Policy) Edges() []float64 {
	out := make([]float64, len(p.edges))
	copy(out, p.edges)
	return out
}

// Actions returns the per-index sleep decisions (a copy).
func (p *Policy) Actions() []bool {
	out := make([]bool, len(p.actions))
	copy(out, p.actions)
	return out
}

// ExpectedCost returns the DP value at idle entry: the expected cost of one
// idle period under the optimal policy.
func (p *Policy) ExpectedCost() float64 { return p.values[0] }

// Decide implements dpm.Policy.
func (p *Policy) Decide(float64) dpm.Decision {
	if math.IsInf(p.timeout, 1) {
		return dpm.Decision{}
	}
	return dpm.Decision{Sleep: true, Timeout: p.timeout, Target: p.cfg.Target}
}

// ObserveIdle implements dpm.Policy. The solved policy is static; adaptive
// refitting composes by re-solving with a refreshed distribution (see
// Adaptive).
func (p *Policy) ObserveIdle(float64) {}

// Name implements dpm.Policy.
func (p *Policy) Name() string { return "tismdp" }

// Adaptive wraps the solver with on-line model refitting: it starts from a
// prior idle-time model and, every refitEvery observed idle periods, re-fits
// the model to the empirical history (short-gap exponential bulk plus a
// Pareto tail above the break-even time) and re-solves the dynamic program.
// This closes the loop the paper leaves open — its policies are optimised
// off-line against a pre-characterised distribution.
type Adaptive struct {
	cfg        Config
	refitEvery int
	observed   []float64
	current    *Policy
}

// NewAdaptive solves the prior model and returns the adaptive policy.
func NewAdaptive(cfg Config, refitEvery int) (*Adaptive, error) {
	if refitEvery < 10 {
		return nil, fmt.Errorf("tismdp: refit interval must be >= 10, got %d", refitEvery)
	}
	p, err := Solve(cfg)
	if err != nil {
		return nil, err
	}
	return &Adaptive{cfg: cfg, refitEvery: refitEvery, current: p}, nil
}

// Decide implements dpm.Policy.
func (a *Adaptive) Decide(oracleIdle float64) dpm.Decision { return a.current.Decide(oracleIdle) }

// Timeout returns the current effective timeout.
func (a *Adaptive) Timeout() float64 { return a.current.Timeout() }

// ObserveIdle implements dpm.Policy: record the period and periodically
// refit + re-solve.
func (a *Adaptive) ObserveIdle(duration float64) {
	if duration <= 0 {
		return
	}
	a.observed = append(a.observed, duration)
	if len(a.observed)%a.refitEvery != 0 {
		return
	}
	model, ok := fitIdleModel(a.observed, a.cfg.Costs.BreakEven())
	if !ok {
		return
	}
	cfg := a.cfg
	cfg.Idle = model
	if p, err := Solve(cfg); err == nil {
		a.current = p
	}
}

// Name implements dpm.Policy.
func (*Adaptive) Name() string { return "tismdp-adaptive" }

// fitIdleModel fits the composite short-bulk + heavy-tail model to observed
// idle periods, splitting at the break-even time.
func fitIdleModel(observed []float64, split float64) (stats.Distribution, bool) {
	if split <= 0 {
		split = 0.1
	}
	var short, long []float64
	for _, d := range observed {
		if d > split {
			long = append(long, d)
		} else {
			short = append(short, d)
		}
	}
	if len(short) < 5 {
		return nil, false
	}
	bulk, err := stats.FitExponential(short)
	if err != nil {
		return nil, false
	}
	if len(long) < 3 {
		return bulk, true
	}
	tail, err := stats.FitPareto(long)
	if err != nil {
		return bulk, true
	}
	return stats.NewMixture(
		[]float64{float64(len(short)), float64(len(long))},
		[]stats.Distribution{bulk, tail},
	), true
}
