// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 4) from the simulator: Tables 1-5 and Figures 3-6,
// 9 and 10. Each experiment has a function returning typed rows plus a
// text renderer used by cmd/tables and the benchmark harness.
//
// EXPERIMENTS.md records the paper-vs-measured comparison for each one.
package experiments

import (
	"fmt"
	"strings"
	"sync/atomic"

	"smartbadge/internal/changepoint"
	"smartbadge/internal/device"
	"smartbadge/internal/dpm"
	"smartbadge/internal/perfmodel"
	"smartbadge/internal/policy"
	"smartbadge/internal/sa1100"
	"smartbadge/internal/sim"
	"smartbadge/internal/stats"
	"smartbadge/internal/thrcache"
	"smartbadge/internal/workload"
)

// PolicyKind enumerates the four rate-detection policies compared in
// Tables 3 and 4 of the paper.
type PolicyKind int

// The comparison set of Section 4.
const (
	// Ideal detection: knows the future (the paper's upper bound).
	Ideal PolicyKind = iota
	// ChangePoint: the paper's contribution.
	ChangePoint
	// ExpAvg: the exponential-moving-average prior art (Equation 6).
	ExpAvg
	// Max: no DVS; processor pinned at maximum performance.
	Max
)

// Policies lists the comparison set in the paper's column order.
func Policies() []PolicyKind { return []PolicyKind{Ideal, ChangePoint, ExpAvg, Max} }

// WireName returns the lowercase machine name of a policy — the spelling
// used by CLI flags and the serving API ("ideal", "changepoint", "expavg",
// "max") — as opposed to String, which renders the paper's column headings.
func (p PolicyKind) WireName() string {
	switch p {
	case Ideal:
		return "ideal"
	case ChangePoint:
		return "changepoint"
	case ExpAvg:
		return "expavg"
	case Max:
		return "max"
	default:
		return fmt.Sprintf("policykind(%d)", int(p))
	}
}

// ParsePolicyKind is the inverse of WireName (case-insensitive).
func ParsePolicyKind(s string) (PolicyKind, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "ideal":
		return Ideal, nil
	case "changepoint":
		return ChangePoint, nil
	case "expavg":
		return ExpAvg, nil
	case "max":
		return Max, nil
	default:
		return 0, fmt.Errorf("experiments: unknown policy %q (want ideal|changepoint|expavg|max)", s)
	}
}

// String implements fmt.Stringer.
func (p PolicyKind) String() string {
	switch p {
	case Ideal:
		return "Ideal"
	case ChangePoint:
		return "Change Point"
	case ExpAvg:
		return "Exp. Ave."
	case Max:
		return "Max"
	default:
		return fmt.Sprintf("PolicyKind(%d)", int(p))
	}
}

// App bundles the per-application configuration: performance curve, delay
// target and the candidate rate grids the change-point detector snaps to.
type App struct {
	Kind        workload.Kind
	Curve       perfmodel.Curve
	TargetDelay float64
	// ArrivalGrid and ServiceGrid are the candidate rate sets Λ for the two
	// detectors.
	ArrivalGrid []float64
	ServiceGrid []float64
}

// MP3App returns the audio configuration: 0.15 s delay target (≈ 6 buffered
// frames at ~40 fr/s, the paper's audio allowance) and grids spanning the
// Table 2 rate bands.
func MP3App() App {
	arr, err := changepoint.GeometricRates(6, 44, 8)
	if err != nil {
		panic(err)
	}
	srv, err := changepoint.GeometricRates(60, 150, 6)
	if err != nil {
		panic(err)
	}
	return App{
		Kind:        workload.MP3,
		Curve:       perfmodel.MP3Curve(),
		TargetDelay: 0.15,
		ArrivalGrid: arr,
		ServiceGrid: srv,
	}
}

// MPEGApp returns the video configuration: 0.1 s delay target (≈ 2 buffered
// frames at ~20 fr/s, the paper's video allowance).
func MPEGApp() App {
	arr, err := changepoint.GeometricRates(8, 34, 8)
	if err != nil {
		panic(err)
	}
	srv, err := changepoint.GeometricRates(34, 80, 6)
	if err != nil {
		panic(err)
	}
	return App{
		Kind:        workload.MPEG,
		Curve:       perfmodel.MPEGCurve(),
		TargetDelay: 0.1,
		ArrivalGrid: arr,
		ServiceGrid: srv,
	}
}

// thresholdCache memoises the expensive off-line characterisation per
// detector configuration, shared by every experiment and benchmark in the
// process. It defaults to a memory-only thrcache (in-process LRU plus
// single-flight dedup); cmd binaries swap in a disk-backed cache via
// SetThresholdCache so characterisations persist across invocations.
var thresholdCache atomic.Pointer[thrcache.Cache]

func init() { thresholdCache.Store(thrcache.Memory()) }

// SetThresholdCache replaces the process-wide threshold cache. Passing nil
// resets to a fresh memory-only cache.
func SetThresholdCache(c *thrcache.Cache) {
	if c == nil {
		c = thrcache.Memory()
	}
	thresholdCache.Store(c)
}

// ThresholdCache returns the threshold cache currently in use.
func ThresholdCache() *thrcache.Cache { return thresholdCache.Load() }

// thresholdsFor returns (characterising on first use) the detection
// thresholds for a rate grid under the paper's default detector settings.
func thresholdsFor(rates []float64) (*changepoint.Thresholds, changepoint.Config, error) {
	cfg := changepoint.DefaultConfig(rates)
	th, err := thresholdCache.Load().Characterise(cfg)
	return th, cfg, err
}

// ExpAvgGain is the exponential-average gain used in the table comparisons
// (the paper plots 0.03 and 0.05; tables use a single configuration).
const ExpAvgGain = 0.05

// NewEstimator builds the arrival- or service-rate estimator for a policy.
func NewEstimator(kind PolicyKind, grid []float64, initial float64) (policy.Estimator, error) {
	switch kind {
	case Ideal:
		return policy.NewIdeal(initial), nil
	case ChangePoint:
		th, cfg, err := thresholdsFor(grid)
		if err != nil {
			return nil, err
		}
		det, err := changepoint.NewDetector(cfg, th, initial)
		if err != nil {
			return nil, err
		}
		return policy.NewChangePoint(det), nil
	case ExpAvg:
		return policy.NewExpAverage(ExpAvgGain, initial), nil
	case Max:
		return policy.NewFixed(initial), nil
	default:
		return nil, fmt.Errorf("experiments: unknown policy %v", kind)
	}
}

// NewController assembles the DVS controller for a policy and application,
// initialised to the trace's opening rates (all policies share the same
// starting knowledge; only their tracking differs).
func NewController(kind PolicyKind, app App, initialArrival, initialService float64) (*policy.Controller, error) {
	arr, err := NewEstimator(kind, app.ArrivalGrid, initialArrival)
	if err != nil {
		return nil, err
	}
	srv, err := NewEstimator(kind, app.ServiceGrid, initialService)
	if err != nil {
		return nil, err
	}
	ctrl, err := policy.NewController(sa1100.Default(), app.Curve, app.TargetDelay, arr, srv, kind == Max)
	if err != nil {
		return nil, err
	}
	ctrl.ResetRates(initialArrival, initialService)
	return ctrl, nil
}

// RunPolicy simulates one trace under one policy and DPM configuration.
// mutate, when non-nil, adjusts the simulator configuration (buffer
// capacity, timeline recording, observability, …) before the run. When it
// sets cfg.Obs, the controller, both change-point detectors (labelled
// "arrival" and "service"), the DPM policy and the simulator itself all
// report into it; a nil Obs is the fast path — no wrapping, no
// instrumentation, bit-identical results.
func RunPolicy(kind PolicyKind, app App, tr *workload.Trace, pol dpm.Policy, mutate func(*sim.Config)) (*sim.Result, error) {
	first := tr.Changes[0]
	ctrl, err := NewController(kind, app, first.ArrivalRate, first.DecodeRateMax)
	if err != nil {
		return nil, err
	}
	cfg := sim.Config{
		Badge:      device.SmartBadge(),
		Proc:       sa1100.Default(),
		Trace:      tr,
		Controller: ctrl,
		DPM:        pol,
		Kind:       app.Kind,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	if o := cfg.Obs; o != nil {
		cfg.Controller.Instrument(o)
		if cp, ok := cfg.Controller.ArrivalEst.(*policy.ChangePoint); ok {
			cp.Instrument(o, "arrival")
		}
		if cp, ok := cfg.Controller.ServiceEst.(*policy.ChangePoint); ok {
			cp.Instrument(o, "service")
		}
		cfg.DPM = dpm.Observe(cfg.DPM, o)
	}
	return sim.Run(cfg)
}

// Table5GapDistribution is the idle-period model of the combined scenario:
// a minimum pause plus a heavy Pareto tail, giving the "longer idle times"
// during which the power manager can place the SmartBadge in standby.
// The shape keeps the decreasing-hazard character that makes timeout
// policies non-trivial while giving the total idle time a finite variance,
// so the scenario (and its saving factor) is stable across realisations.
func Table5GapDistribution() stats.Distribution {
	return stats.Shifted{Offset: 120, Base: stats.NewPareto(280, 3.5)}
}
