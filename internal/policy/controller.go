package policy

import (
	"fmt"
	"math"

	"smartbadge/internal/obs"
	"smartbadge/internal/perfmodel"
	"smartbadge/internal/queue"
	"smartbadge/internal/sa1100"
)

// RateClamp bounds an estimator's output before the M/M/1 equation consumes
// it, so a single wild sample (a fault-injected straggler, a catch-up burst's
// microsecond interarrivals) cannot command an out-of-range frequency. Each
// bound is active only when positive; the zero value clamps nothing, which
// keeps fault-free behaviour bit-identical.
type RateClamp struct {
	Lo float64
	Hi float64
}

// Clamp returns x limited to the active bounds.
func (r RateClamp) Clamp(x float64) float64 {
	if r.Lo > 0 && x < r.Lo {
		return r.Lo
	}
	if r.Hi > 0 && x > r.Hi {
		return r.Hi
	}
	return x
}

// Controller is the paper's frequency-setting policy: it combines an arrival
// rate estimator and a service (decode) rate estimator and, on every estimate
// change, re-solves the M/M/1 constant-delay equation (Equation 5) for the
// minimum CPU operating point:
//
//  1. required decode rate      λD = λU + 1/W_target
//  2. required performance      perf = λD / λD_at_fmax
//  3. required frequency ratio  via the application's measured curve
//     (piecewise-linear inversion, Figures 4-5)
//  4. operating point           the slowest SA-1100 ladder rung at or above
//     the required frequency; voltage per Figure 3
//
// The AlwaysMax flag turns the controller into the max-performance baseline.
type Controller struct {
	Proc        *sa1100.Processor
	Curve       perfmodel.Curve
	TargetDelay float64
	ArrivalEst  Estimator
	ServiceEst  Estimator
	// AlwaysMax pins the processor at the fastest point (the "Max" column of
	// Tables 3 and 4).
	AlwaysMax bool
	// Hysteresis damps downward frequency changes: the controller only
	// lowers the operating point when the rung selected for a demand
	// inflated by this fraction is still below the current one. Upward
	// changes are never delayed (the delay guarantee must hold). 0 disables.
	// Useful against rung dithering when the rate estimators are noisy
	// (e.g. the exponential-average baseline); set in [0, 1).
	Hysteresis float64
	// ArrivalClamp and ServiceClamp bound the estimated rates fed to the
	// M/M/1 equation (graceful degradation under fault injection). The zero
	// values clamp nothing.
	ArrivalClamp RateClamp
	ServiceClamp RateClamp

	current sa1100.OperatingPoint
	// Reconfigurations counts operating-point changes (each costs the
	// frequency-switch latency).
	Reconfigurations int

	// Observability (nil when uninstrumented — the fast path).
	tr        *obs.Tracer
	cReselect *obs.Counter
}

// NewController validates and builds a controller, starting at the fastest
// operating point (the safe choice before any estimate exists).
func NewController(proc *sa1100.Processor, curve perfmodel.Curve, targetDelay float64,
	arrival, service Estimator, alwaysMax bool) (*Controller, error) {
	if proc == nil {
		return nil, fmt.Errorf("policy: nil processor")
	}
	if curve == nil {
		return nil, fmt.Errorf("policy: nil performance curve")
	}
	if targetDelay <= 0 {
		return nil, fmt.Errorf("policy: target delay must be positive, got %v", targetDelay)
	}
	if arrival == nil || service == nil {
		return nil, fmt.Errorf("policy: nil estimator")
	}
	return &Controller{
		Proc:        proc,
		Curve:       curve,
		TargetDelay: targetDelay,
		ArrivalEst:  arrival,
		ServiceEst:  service,
		AlwaysMax:   alwaysMax,
		current:     proc.Max(),
	}, nil
}

// Instrument attaches observability: every operating-point reselection is
// counted and traced as an "op_select" event carrying the continuous
// required frequency alongside the quantised choice — the controller-side
// view that explains the "op_change" events the simulator applies at frame
// boundaries. A nil o leaves the controller uninstrumented.
func (c *Controller) Instrument(o *obs.Obs) {
	if o == nil {
		return
	}
	c.tr = o.Tracer()
	if r := o.Registry(); r != nil {
		c.cReselect = r.Counter("policy.reselects")
	}
}

// Current returns the operating point the controller last selected.
func (c *Controller) Current() sa1100.OperatingPoint { return c.current }

// OnArrival feeds one frame interarrival time (with its oracle truth rate)
// and returns the selected operating point and whether it changed.
func (c *Controller) OnArrival(gap, truthRate float64) (sa1100.OperatingPoint, bool) {
	_, changed := c.ArrivalEst.Observe(gap, truthRate)
	if !changed {
		return c.current, false
	}
	return c.reselect()
}

// OnService feeds one frame decode time normalised to the maximum frequency
// (i.e. measured decode time multiplied by the performance ratio of the point
// it ran at), with its oracle truth rate. It returns the selected operating
// point and whether it changed.
func (c *Controller) OnService(workAtMax, truthRate float64) (sa1100.OperatingPoint, bool) {
	_, changed := c.ServiceEst.Observe(workAtMax, truthRate)
	if !changed {
		return c.current, false
	}
	return c.reselect()
}

// ResetRates re-initialises both estimators, e.g. when decoding resumes after
// an idle period with a known new clip.
func (c *Controller) ResetRates(arrivalRate, serviceRateMax float64) {
	c.ArrivalEst.Reset(arrivalRate)
	c.ServiceEst.Reset(serviceRateMax)
	c.reselect()
}

// RequiredFrequencyMHz computes the continuous (pre-quantisation) frequency
// demanded by the current estimates; exported for the Figure 9 sweep.
func (c *Controller) RequiredFrequencyMHz() float64 {
	return c.requiredFrequencyMHz(c.ArrivalEst.Rate(), c.ServiceEst.Rate())
}

// DemandRatio returns the uncapped normalised performance demand implied by
// the current (clamped) estimates: the required decode rate divided by the
// estimated max-frequency decode rate. RequiredFrequencyMHz saturates at the
// ladder top, so estimator divergence is invisible through it; this ratio
// keeps growing past 1 and is the overload watchdog's divergence signal
// (see OverloadGuard.ObserveDemand). Degenerate estimates report +Inf.
func (c *Controller) DemandRatio() float64 {
	lambdaU := c.ArrivalClamp.Clamp(c.ArrivalEst.Rate())
	lambdaDMax := c.ServiceClamp.Clamp(c.ServiceEst.Rate())
	if lambdaDMax <= 0 {
		return math.Inf(1)
	}
	required, err := queue.RequiredServiceRate(max(lambdaU, 0), c.TargetDelay)
	if err != nil {
		return math.Inf(1)
	}
	return required / lambdaDMax
}

func (c *Controller) requiredFrequencyMHz(lambdaU, lambdaDMax float64) float64 {
	lambdaU = c.ArrivalClamp.Clamp(lambdaU)
	lambdaDMax = c.ServiceClamp.Clamp(lambdaDMax)
	fMax := c.Proc.Max().FrequencyMHz
	if lambdaDMax <= 0 {
		return fMax
	}
	required, err := queue.RequiredServiceRate(max(lambdaU, 0), c.TargetDelay)
	if err != nil {
		return fMax
	}
	perf := required / lambdaDMax
	if perf >= 1 {
		return fMax
	}
	ratio := c.Curve.FreqRatioFor(perf)
	return ratio * fMax
}

// reselect recomputes the operating point from the current estimates.
func (c *Controller) reselect() (sa1100.OperatingPoint, bool) {
	var op sa1100.OperatingPoint
	var req float64
	if c.AlwaysMax {
		op = c.Proc.Max()
	} else {
		req = c.requiredFrequencyMHz(c.ArrivalEst.Rate(), c.ServiceEst.Rate())
		op = c.Proc.AtLeast(req)
		if c.Hysteresis > 0 && c.Hysteresis < 1 && op.FrequencyMHz < c.current.FrequencyMHz {
			// Downswitch only if the inflated demand still selects a lower
			// rung; otherwise hold the current point.
			guard := c.Proc.AtLeast(req * (1 + c.Hysteresis))
			if guard.FrequencyMHz >= c.current.FrequencyMHz {
				op = c.current
			} else {
				op = guard
			}
		}
	}
	if op == c.current {
		return c.current, false
	}
	prev := c.current
	c.current = op
	c.Reconfigurations++
	c.cReselect.Inc()
	if c.tr != nil {
		c.tr.Emit(obs.Event{
			Kind:    "op_select",
			FromMHz: prev.FrequencyMHz,
			ToMHz:   op.FrequencyMHz,
			ReqMHz:  req,
		})
	}
	return op, true
}
