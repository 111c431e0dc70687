// Package mdp computes the queue-aware optimal DVS policy the paper's model
// implies but its heuristic does not fully exploit. The paper expands the
// active state into frequency/voltage sub-states (Figure 8) and notes that
// "the full optimization model should not only decide when to transition the
// device into one of the low-power states but should also perform dynamic
// voltage scaling in the active state"; its implemented policy then picks a
// single frequency per (λU, λD) pair via the M/M/1 constant-delay inversion.
// The full stochastic-control answer conditions on the *queue length*: run
// slower when the buffer is nearly empty, faster as it fills.
//
// Model. State n = frames in the system, 0..K (the finite frame buffer).
// Action a = an SA-1100 ladder index, controlling the service rate µ(a) and
// the decode power P(a). Arrivals are Poisson at λ. The instantaneous cost
// rate is P(a)·1{n>0} + P_idle·1{n=0} + β·n, where β (watts per buffered
// frame) prices delay via Little's law: a mean queue of L frames is a mean
// delay of L/λ seconds, so β = w·λ charges w joules per frame-second of
// delay.
//
// Solution. The continuous-time MDP is uniformised at Λ = λ + max µ and
// solved by relative value iteration for the average-cost criterion. The
// optimal stationary policy is a monotone switching curve: the action index
// is non-decreasing in the queue length (verified by the tests, together
// with agreement between the solver's average cost and the birth-death
// steady-state evaluation of the same policy).
package mdp

import (
	"fmt"
	"math"

	"smartbadge/internal/markov"
	"smartbadge/internal/sa1100"
)

// Config describes the controlled queue.
type Config struct {
	// Lambda is the Poisson arrival rate (frames/s).
	Lambda float64
	// Mu[a] is the service rate under action a (frames/s), ascending.
	Mu []float64
	// PowerW[a] is the decode power drawn under action a (watts).
	PowerW []float64
	// IdlePowerW is drawn when the queue is empty.
	IdlePowerW float64
	// DelayWeightW is β: watts charged per buffered frame.
	DelayWeightW float64
	// QueueCap is K, the largest queue length modelled.
	QueueCap int
}

// Relative value iteration stops once the span of one sweep's increment
// falls below epsilon (J/s), and gives up after maxIterations sweeps.
const (
	epsilon       = 1e-9
	maxIterations = 1_000_000
)

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Lambda <= 0 {
		return fmt.Errorf("mdp: arrival rate must be positive, got %v", c.Lambda)
	}
	if len(c.Mu) == 0 || len(c.Mu) != len(c.PowerW) {
		return fmt.Errorf("mdp: need matching non-empty Mu and PowerW, got %d and %d", len(c.Mu), len(c.PowerW))
	}
	for i := range c.Mu {
		if c.Mu[i] <= 0 || c.PowerW[i] < 0 {
			return fmt.Errorf("mdp: invalid action %d (µ=%v, P=%v)", i, c.Mu[i], c.PowerW[i])
		}
		if i > 0 && (c.Mu[i] <= c.Mu[i-1] || c.PowerW[i] < c.PowerW[i-1]) {
			return fmt.Errorf("mdp: actions must have ascending rates and non-decreasing powers at %d", i)
		}
	}
	if c.Mu[len(c.Mu)-1] <= c.Lambda {
		return fmt.Errorf("mdp: fastest action (%v) cannot sustain arrivals (%v)", c.Mu[len(c.Mu)-1], c.Lambda)
	}
	if c.IdlePowerW < 0 || c.DelayWeightW < 0 {
		return fmt.Errorf("mdp: negative idle power or delay weight")
	}
	if c.QueueCap < 2 {
		return fmt.Errorf("mdp: queue capacity must be >= 2, got %d", c.QueueCap)
	}
	return nil
}

// Policy is the solved stationary policy.
type Policy struct {
	// Action[n] is the optimal ladder index when n frames are queued
	// (Action[0] is immaterial — nothing is being served — and set to
	// Action[1] for convenience).
	Action []int
	// AvgCostW is the optimal average cost rate (watts, including the delay
	// charge).
	AvgCostW float64
	// Iterations taken by relative value iteration.
	Iterations int
	cfg        Config
}

// Solve runs relative value iteration and returns the optimal policy.
func Solve(cfg Config) (*Policy, error) { return solve(cfg, maxIterations) }

// solve is Solve with an iteration bound, which the non-convergence test
// lowers.
func solve(cfg Config, maxIter int) (*Policy, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	nStates := cfg.QueueCap + 1
	nActions := len(cfg.Mu)
	muMax := cfg.Mu[nActions-1]
	uni := cfg.Lambda + muMax // uniformisation constant

	cost := func(n, a int) float64 {
		c := cfg.DelayWeightW * float64(n)
		if n == 0 {
			return c + cfg.IdlePowerW
		}
		return c + cfg.PowerW[a]
	}

	v := make([]float64, nStates)
	nv := make([]float64, nStates)
	policy := make([]int, nStates)
	var span float64
	it := 0
	for ; it < maxIter; it++ {
		for n := 0; n < nStates; n++ {
			up := n + 1
			if up > cfg.QueueCap {
				up = cfg.QueueCap // arrivals beyond K are dropped
			}
			if n == 0 {
				// No service; the action is irrelevant.
				nv[n] = cost(0, 0)/uni + (cfg.Lambda*v[up]+(uni-cfg.Lambda)*v[0])/uni
				continue
			}
			best := math.Inf(1)
			bestA := 0
			for a := 0; a < nActions; a++ {
				mu := cfg.Mu[a]
				q := cost(n, a)/uni +
					(cfg.Lambda*v[up]+mu*v[n-1]+(uni-cfg.Lambda-mu)*v[n])/uni
				if q < best {
					best, bestA = q, a
				}
			}
			nv[n] = best
			policy[n] = bestA
		}
		// Relative value iteration: subtract nv[0] and test the span of the
		// increment for convergence.
		minD, maxD := math.Inf(1), math.Inf(-1)
		for n := 0; n < nStates; n++ {
			d := nv[n] - v[n]
			if d < minD {
				minD = d
			}
			if d > maxD {
				maxD = d
			}
		}
		span = maxD - minD
		ref := nv[0]
		for n := 0; n < nStates; n++ {
			v[n] = nv[n] - ref
		}
		if span < epsilon/uni {
			it++
			break
		}
	}
	if span >= epsilon/uni && it == maxIter {
		return nil, fmt.Errorf("mdp: value iteration did not converge within %d iterations (span %v)", maxIter, span*uni)
	}
	policy[0] = policy[1]
	p := &Policy{Action: policy, Iterations: it, cfg: cfg}
	avg, err := EvaluatePolicy(cfg, policy)
	if err != nil {
		return nil, err
	}
	p.AvgCostW = avg
	return p, nil
}

// EvaluatePolicy computes the exact average cost rate of any stationary
// queue-length policy via the induced birth-death chain's steady state.
func EvaluatePolicy(cfg Config, action []int) (float64, error) {
	if err := cfg.Validate(); err != nil {
		return 0, err
	}
	if len(action) != cfg.QueueCap+1 {
		return 0, fmt.Errorf("mdp: policy has %d entries, want %d", len(action), cfg.QueueCap+1)
	}
	birth := make([]float64, cfg.QueueCap)
	death := make([]float64, cfg.QueueCap)
	for n := 0; n < cfg.QueueCap; n++ {
		birth[n] = cfg.Lambda
		a := action[n+1]
		if a < 0 || a >= len(cfg.Mu) {
			return 0, fmt.Errorf("mdp: action %d out of range at state %d", a, n+1)
		}
		death[n] = cfg.Mu[a]
	}
	chain, err := markov.NewBirthDeath(birth, death)
	if err != nil {
		return 0, err
	}
	pi := chain.SteadyState()
	total := 0.0
	for n, p := range pi {
		c := cfg.DelayWeightW * float64(n)
		if n == 0 {
			c += cfg.IdlePowerW
		} else {
			c += cfg.PowerW[action[n]]
		}
		total += p * c
	}
	return total, nil
}

// Ladder binds the solved policy to a processor's operating points,
// yielding the queue-length → operating-point map the simulator consumes
// (sim.Config.QueuePolicy).
func (p *Policy) Ladder(proc *sa1100.Processor) (*LadderPolicy, error) {
	if proc == nil {
		return nil, fmt.Errorf("mdp: nil processor")
	}
	if proc.NumPoints() != len(p.cfg.Mu) {
		return nil, fmt.Errorf("mdp: policy solved over %d actions, processor has %d points",
			len(p.cfg.Mu), proc.NumPoints())
	}
	return &LadderPolicy{actions: p.Action, proc: proc}, nil
}

// LadderPolicy maps buffer occupancy to an SA-1100 operating point.
type LadderPolicy struct {
	actions []int
	proc    *sa1100.Processor
}

// OperatingPointFor implements the simulator's QueuePolicy interface.
// Occupancies beyond the solved queue cap use the deepest state's action.
func (l *LadderPolicy) OperatingPointFor(queueLen int) sa1100.OperatingPoint {
	if queueLen < 0 {
		queueLen = 0
	}
	if queueLen >= len(l.actions) {
		queueLen = len(l.actions) - 1
	}
	return l.proc.Point(l.actions[queueLen])
}

// FixedPolicy returns the policy that always uses ladder index a.
func FixedPolicy(cfg Config, a int) []int {
	p := make([]int, cfg.QueueCap+1)
	for i := range p {
		p[i] = a
	}
	return p
}

// MeanQueueLength returns E[N] under a policy's steady state.
func MeanQueueLength(cfg Config, action []int) (float64, error) {
	if err := cfg.Validate(); err != nil {
		return 0, err
	}
	if len(action) != cfg.QueueCap+1 {
		return 0, fmt.Errorf("mdp: policy has %d entries, want %d", len(action), cfg.QueueCap+1)
	}
	birth := make([]float64, cfg.QueueCap)
	death := make([]float64, cfg.QueueCap)
	for n := 0; n < cfg.QueueCap; n++ {
		birth[n] = cfg.Lambda
		death[n] = cfg.Mu[action[n+1]]
	}
	chain, err := markov.NewBirthDeath(birth, death)
	if err != nil {
		return 0, err
	}
	mean := 0.0
	for n, p := range chain.SteadyState() {
		mean += float64(n) * p
	}
	return mean, nil
}
