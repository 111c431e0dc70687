// Package smartbadge reproduces "Dynamic Voltage Scaling and Power
// Management for Portable Systems" (Simunic, Benini, Acquaviva, Glynn,
// De Micheli — DAC 2001): a power manager for a StrongARM-based wearable
// that combines change-point-detection-driven dynamic voltage scaling in the
// active state with renewal-theory dynamic power management in the idle
// state, evaluated on streaming MP3 audio and MPEG2 video workloads.
//
// This root package is the public facade. It exposes:
//
//   - workload constructors (the Table 2 MP3 catalogue, the MPEG clips, and
//     the combined audio+video+idle scenario of Table 5);
//   - Run, which simulates a workload under a chosen DVS policy (ideal /
//     change-point / exponential-average / max-performance) and DPM mode
//     (none / timeout / renewal / oracle) and returns the energy and frame
//     delay report;
//   - re-exported result types.
//
// The building blocks live in internal/ packages: internal/changepoint (the
// paper's detector), internal/policy (rate estimators + the M/M/1 frequency
// controller), internal/dpm (idle-state policies), internal/sim (the
// discrete-event simulator), internal/sa1100, internal/device,
// internal/perfmodel, internal/queue, internal/workload and internal/stats.
// The experiment harness regenerating every paper table and figure is
// internal/experiments, driven by cmd/tables.
package smartbadge

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"smartbadge/internal/battery"
	"smartbadge/internal/device"
	"smartbadge/internal/dpm"
	"smartbadge/internal/experiments"
	"smartbadge/internal/faults"
	"smartbadge/internal/obs"
	"smartbadge/internal/policy"
	"smartbadge/internal/sim"
	"smartbadge/internal/stats"
	"smartbadge/internal/tismdp"
	"smartbadge/internal/workload"
)

// Result is the simulation report: total and per-component energy, frame
// delay statistics, time and energy per mode, and policy diagnostics.
type Result = sim.Result

// Trace is a generated frame workload.
type Trace = workload.Trace

// Policy selects the rate-detection algorithm driving DVS.
type Policy string

// The four policies of the paper's comparison (Tables 3-4).
const (
	// PolicyIdeal is oracle detection — knows every rate change instantly.
	PolicyIdeal Policy = "ideal"
	// PolicyChangePoint is the paper's maximum-likelihood detector.
	PolicyChangePoint Policy = "changepoint"
	// PolicyExpAvg is the exponential-moving-average prior art.
	PolicyExpAvg Policy = "expavg"
	// PolicyMax disables DVS (maximum performance).
	PolicyMax Policy = "max"
)

// ParsePolicy converts a string to a Policy.
func ParsePolicy(s string) (Policy, error) {
	switch Policy(strings.ToLower(s)) {
	case PolicyIdeal, PolicyChangePoint, PolicyExpAvg, PolicyMax:
		return Policy(strings.ToLower(s)), nil
	default:
		return "", fmt.Errorf("smartbadge: unknown policy %q (want ideal|changepoint|expavg|max)", s)
	}
}

func (p Policy) kind() (experiments.PolicyKind, error) {
	switch p {
	case PolicyIdeal:
		return experiments.Ideal, nil
	case PolicyChangePoint:
		return experiments.ChangePoint, nil
	case PolicyExpAvg:
		return experiments.ExpAvg, nil
	case PolicyMax:
		return experiments.Max, nil
	default:
		return 0, fmt.Errorf("smartbadge: unknown policy %q", string(p))
	}
}

// DPMMode selects the idle-state power management policy.
type DPMMode string

// The DPM configurations.
const (
	// DPMNone never transitions to a low-power state.
	DPMNone DPMMode = "none"
	// DPMTimeout sleeps after a fixed timeout (see Options.TimeoutS).
	DPMTimeout DPMMode = "timeout"
	// DPMRenewal uses the renewal-theory optimal timeout for the workload's
	// idle-time distribution (the paper's stochastic policy structure).
	DPMRenewal DPMMode = "renewal"
	// DPMTISMDP solves the time-indexed semi-Markov decision process of the
	// paper's reference [3] over the workload's idle-time distribution.
	DPMTISMDP DPMMode = "tismdp"
	// DPMOracle knows each idle period's length (unbeatable reference).
	DPMOracle DPMMode = "oracle"
)

// ParseDPM converts a string to a DPMMode.
func ParseDPM(s string) (DPMMode, error) {
	switch DPMMode(strings.ToLower(s)) {
	case DPMNone, DPMTimeout, DPMRenewal, DPMTISMDP, DPMOracle:
		return DPMMode(strings.ToLower(s)), nil
	default:
		return "", fmt.Errorf("smartbadge: unknown DPM mode %q (want none|timeout|renewal|tismdp|oracle)", s)
	}
}

// Application selects the decoder configuration.
type Application string

// The supported applications.
const (
	// AppMP3: audio decode out of SRAM, 0.15 s delay target.
	AppMP3 Application = "mp3"
	// AppMPEG: video decode out of DRAM, 0.1 s delay target.
	AppMPEG Application = "mpeg"
	// AppMixed: the combined audio+video scenario of Table 5.
	AppMixed Application = "mixed"
)

// ParseApplication converts a string to an Application.
func ParseApplication(s string) (Application, error) {
	switch Application(strings.ToLower(s)) {
	case AppMP3, AppMPEG, AppMixed:
		return Application(strings.ToLower(s)), nil
	default:
		return "", fmt.Errorf("smartbadge: unknown application %q (want mp3|mpeg|mixed)", s)
	}
}

func (a Application) app() (experiments.App, error) {
	switch a {
	case AppMP3:
		return experiments.MP3App(), nil
	case AppMPEG:
		return experiments.MPEGApp(), nil
	case AppMixed:
		return experiments.MixedApp(), nil
	default:
		return experiments.App{}, fmt.Errorf("smartbadge: unknown application %q", string(a))
	}
}

// MP3Trace generates a Table 3-style audio workload from a clip label
// sequence such as "ACEFBD" (clips per Table 2).
func MP3Trace(seed uint64, labels string) (*Trace, error) {
	clips, err := workload.MP3Sequence(labels)
	if err != nil {
		return nil, err
	}
	return workload.Generate(stats.NewRNG(seed), clips, workload.GenerateOptions{})
}

// MPEGTrace generates a Table 4-style video workload for "football" or
// "terminator2".
func MPEGTrace(seed uint64, clip string) (*Trace, error) {
	var c workload.Clip
	switch strings.ToLower(clip) {
	case "football":
		c = workload.Football()
	case "terminator2", "t2":
		c = workload.Terminator2()
	default:
		return nil, fmt.Errorf("smartbadge: unknown MPEG clip %q (want football|terminator2)", clip)
	}
	return workload.Generate(stats.NewRNG(seed), []workload.Clip{c}, workload.GenerateOptions{})
}

// CombinedTrace generates the Table 5 scenario: audio and video clips
// separated by long heavy-tailed idle periods.
func CombinedTrace(seed uint64) (*Trace, error) {
	return experiments.Table5Workload(seed)
}

// CustomTrace generates a workload from a JSON clip configuration (see
// internal/workload.LoadClips for the format), letting users define their
// own media sequences without recompiling.
func CustomTrace(seed uint64, clipConfig io.Reader) (*Trace, error) {
	clips, err := workload.LoadClips(clipConfig)
	if err != nil {
		return nil, err
	}
	return workload.Generate(stats.NewRNG(seed), clips, workload.GenerateOptions{})
}

// WriteDefaultBadgeConfig writes the built-in (reconstructed) Table 1
// hardware table as JSON — the starting point for recalibrating against
// real measurements (feed the edited file back via Options.BadgeConfig).
func WriteDefaultBadgeConfig(w io.Writer) error {
	return device.SaveBadge(w, device.SmartBadge())
}

// WriteTraceCSV serialises a trace (one row per frame, oracle rates
// included) for external tooling or later replay.
func WriteTraceCSV(w io.Writer, tr *Trace) error { return workload.WriteCSV(w, tr) }

// ReadTraceCSV deserialises a trace written by WriteTraceCSV, enabling
// replay of recorded workloads through Run.
func ReadTraceCSV(r io.Reader) (*Trace, error) { return workload.ReadCSV(r) }

// Options configures one simulation run.
type Options struct {
	// Application selects delay target, performance curve and rate grids.
	Application Application
	// Policy is the DVS rate-detection algorithm.
	Policy Policy
	// DPM is the idle-state policy.
	DPM DPMMode
	// TimeoutS is the fixed timeout for DPMTimeout (seconds).
	TimeoutS float64
	// Trace is the workload to run.
	Trace *Trace
	// BufferCap bounds the frame buffer; overflowing arrivals are dropped.
	// 0 means unbounded.
	BufferCap int
	// RecordTimeline retains the mode timeline for FormatTimeline.
	RecordTimeline bool
	// BadgeConfig, when non-nil, replaces the built-in (reconstructed)
	// Table 1 hardware table with a JSON component table — the calibration
	// hook for real measurements. See internal/device.LoadBadge for the
	// format.
	BadgeConfig io.Reader
	// Obs, when non-nil, attaches metrics and/or event tracing to the run:
	// the controller, detectors, DPM policy and simulator all report into it.
	// nil (the default) is the zero-overhead path — results are bit-identical
	// with and without it.
	Obs *Observability
	// Faults names a fault scenario to inject (see FaultScenarios). "" and
	// "none" run the golden fault-free path, bit-identical to builds without
	// the fault engine. Any other scenario perturbs a copy of the trace
	// before the run and — unless DisableGuardrails is set — arms the
	// graceful-degradation guardrails: the overload watchdog falling back to
	// maximum performance, clamped rate estimates, and the DPM sleep veto.
	Faults string
	// FaultSeed seeds the fault injection stream independently of the
	// workload seed. 0 selects 1.
	FaultSeed uint64
	// DisableGuardrails runs a fault scenario without the watchdog, clamps
	// or DPM guard — the "how badly does the bare policy fail" comparison.
	DisableGuardrails bool
	// FaultReport, when non-nil, receives the injection summary of the run.
	FaultReport *FaultReport
}

// FaultReport summarises what a fault scenario injected into the run.
type FaultReport = faults.Report

// FaultScenarios lists the scenario names Options.Faults accepts.
func FaultScenarios() []string { return faults.Names() }

// Validate checks the options for nonsense that would otherwise surface as a
// confusing failure (or a panic) deep inside the simulator. Zero values are
// valid: they select the documented defaults. Run calls this itself; it is
// exported so front ends can validate before spending work building traces.
func (o Options) Validate() error {
	if o.Trace == nil {
		return fmt.Errorf("smartbadge: Options.Trace is required")
	}
	if err := o.Trace.Validate(); err != nil {
		return fmt.Errorf("smartbadge: invalid trace: %w", err)
	}
	if o.Application != "" {
		if _, err := ParseApplication(string(o.Application)); err != nil {
			return err
		}
	}
	if o.Policy != "" {
		if _, err := ParsePolicy(string(o.Policy)); err != nil {
			return err
		}
	}
	if o.DPM != "" {
		if _, err := ParseDPM(string(o.DPM)); err != nil {
			return err
		}
	}
	if o.TimeoutS < 0 {
		return fmt.Errorf("smartbadge: Options.TimeoutS must be non-negative, got %v", o.TimeoutS)
	}
	if o.BufferCap < 0 {
		return fmt.Errorf("smartbadge: Options.BufferCap must be non-negative, got %d", o.BufferCap)
	}
	if !faults.ValidName(o.Faults) {
		return fmt.Errorf("smartbadge: unknown fault scenario %q (want %s)",
			o.Faults, strings.Join(faults.Names(), "|"))
	}
	return nil
}

// Observability bundles an optional metrics registry and event tracer;
// build one with NewObservability.
type Observability = obs.Obs

// MetricsRegistry accumulates counters, gauges and histograms during a run;
// snapshot it with WriteJSON after Run returns.
type MetricsRegistry = obs.Registry

// EventTracer streams structured JSONL events (arrivals, decodes,
// operating-point changes, sleep/wake transitions, detections, energy
// deltas) to a writer; call Flush after Run returns.
type EventTracer = obs.Tracer

// TraceEvent is one JSONL trace line (see internal/obs for the kind set).
type TraceEvent = obs.Event

// NewObservability bundles a metrics registry and an event tracer for
// Options.Obs; either may be nil.
func NewObservability(reg *MetricsRegistry, tr *EventTracer) *Observability { return obs.New(reg, tr) }

// NewMetricsRegistry returns an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// NewEventTracer returns a tracer writing JSONL to w.
func NewEventTracer(w io.Writer) *EventTracer { return obs.NewTracer(w) }

// faultStream derives the fault-injection RNG stream from the fault seed,
// keeping it independent of the workload generation stream for the same seed.
const faultStream = 0xFA017

// Run simulates the workload under the chosen policies and returns the
// energy/performance report. With Options.Faults set, the workload is
// perturbed by the named scenario and (unless disabled) the
// graceful-degradation guardrails are armed; without it the run is the
// golden fault-free path.
func Run(opts Options) (*Result, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if opts.Application == "" {
		opts.Application = AppMP3
	}
	if opts.Policy == "" {
		opts.Policy = PolicyChangePoint
	}
	if opts.DPM == "" {
		opts.DPM = DPMNone
	}
	app, err := opts.Application.app()
	if err != nil {
		return nil, err
	}
	kind, err := opts.Policy.kind()
	if err != nil {
		return nil, err
	}
	badge := device.SmartBadge()
	if opts.BadgeConfig != nil {
		badge, err = device.LoadBadge(opts.BadgeConfig)
		if err != nil {
			return nil, err
		}
	}
	pol, err := buildDPM(opts, badge)
	if err != nil {
		return nil, err
	}

	trace := opts.Trace
	var derate []sim.PowerDerate
	faulted := false
	if opts.Faults != "" {
		sc, err := faults.ByName(opts.Faults, trace)
		if err != nil {
			return nil, err
		}
		if !sc.Empty() {
			seed := opts.FaultSeed
			if seed == 0 {
				seed = 1
			}
			inj, err := faults.Apply(stats.NewRNG(seed).SplitAt(faultStream), trace, sc, opts.Obs)
			if err != nil {
				return nil, err
			}
			trace, derate, faulted = inj.Trace, inj.Derate, true
			if opts.FaultReport != nil {
				*opts.FaultReport = inj.Report
			}
		}
	}

	// Guardrails arm only on faulted runs, keeping the fault-free path
	// byte-identical; DisableGuardrails exposes the unprotected behaviour.
	var guard *policy.OverloadGuard
	var dguard *dpm.Guard
	if faulted && !opts.DisableGuardrails {
		guard, err = policy.NewOverloadGuard(policy.DefaultGuardConfig())
		if err != nil {
			return nil, err
		}
		dguard, err = dpm.NewGuard(pol, dpm.DefaultGuardSpikeFactor, dpm.DefaultGuardHold)
		if err != nil {
			return nil, err
		}
		guard.OnTrip = func(float64) { dguard.NoteSuspicion() }
		guard.Instrument(opts.Obs)
		dguard.Instrument(opts.Obs)
		pol = dguard
	}

	return experiments.RunPolicy(kind, app, trace, pol, func(cfg *sim.Config) {
		cfg.Obs = opts.Obs
		cfg.Badge = badge
		cfg.BufferCap = opts.BufferCap
		cfg.RecordTimeline = opts.RecordTimeline
		cfg.Guard = guard
		cfg.Derate = derate
		if guard != nil {
			cfg.Controller.ArrivalClamp = experiments.GridClamp(app.ArrivalGrid)
			cfg.Controller.ServiceClamp = experiments.GridClamp(app.ServiceGrid)
		}
	})
}

// FormatTimeline renders the run's mode timeline as a fixed-width ASCII
// strip (requires Options.RecordTimeline).
func FormatTimeline(r *Result, width int) string {
	return sim.FormatTimeline(r.Timeline, width)
}

func buildDPM(opts Options, badge *device.Badge) (dpm.Policy, error) {
	costs := dpm.CostsForBadge(badge, device.Standby)
	switch opts.DPM {
	case DPMNone:
		return dpm.AlwaysOn{}, nil
	case DPMTimeout:
		timeout := opts.TimeoutS
		if timeout == 0 {
			timeout = costs.BreakEven()
		}
		return dpm.NewFixedTimeout(timeout, device.Standby)
	case DPMRenewal:
		return dpm.NewRenewalTimeout(opts.Trace.IdleModel(), costs, device.Standby, 0)
	case DPMTISMDP:
		return tismdp.Solve(tismdp.Config{
			Idle:   opts.Trace.IdleModel(),
			Costs:  costs,
			Target: device.Standby,
		})
	case DPMOracle:
		return dpm.NewOracle(costs, device.Standby)
	default:
		return nil, fmt.Errorf("smartbadge: unknown DPM mode %q", string(opts.DPM))
	}
}

// Battery is a rate-dependent (Peukert) battery model for lifetime
// estimates — the metric that motivates the paper.
type Battery = battery.Battery

// DefaultBattery returns the SmartBadge-class 800 mAh / 2.4 V pack.
func DefaultBattery() Battery { return battery.Default() }

// BatteryLifetimeHours estimates how long the given battery sustains the
// run's average power draw.
func BatteryLifetimeHours(r *Result, b Battery) (float64, error) {
	if r == nil {
		return 0, fmt.Errorf("smartbadge: nil result")
	}
	if err := b.Validate(); err != nil {
		return 0, err
	}
	return b.LifetimeHours(r.AvgPowerW), nil
}

// FormatResult renders a human-readable run report.
func FormatResult(r *Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "energy:            %.1f J (%.3f kJ)\n", r.EnergyJ, r.EnergyJ/1000)
	fmt.Fprintf(&b, "simulated time:    %.1f s\n", r.SimTime)
	fmt.Fprintf(&b, "average power:     %.3f W\n", r.AvgPowerW)
	fmt.Fprintf(&b, "frames decoded:    %d\n", r.FramesDecoded)
	fmt.Fprintf(&b, "mean frame delay:  %.3f s (max %.3f s)\n", r.FrameDelay.Mean(), r.FrameDelay.Max())
	fmt.Fprintf(&b, "mean buffer level: %.2f frames (peak %d)\n", r.QueueLen.Mean(), r.PeakQueue)
	fmt.Fprintf(&b, "mean decode clock: %.1f MHz\n", r.FreqTime.Mean())
	fmt.Fprintf(&b, "freq/volt changes: %d\n", r.Reconfigurations)
	fmt.Fprintf(&b, "sleep transitions: %d\n", r.Sleeps)
	if r.GuardTrips > 0 {
		fmt.Fprintf(&b, "watchdog:          %d trips, %.1f s in safe mode\n", r.GuardTrips, r.GuardEngagedS)
	}
	fmt.Fprintf(&b, "time by mode:      decode %.1fs, idle %.1fs, sleep %.1fs, wake %.1fs\n",
		r.TimeInMode[0], r.TimeInMode[1], r.TimeInMode[2], r.TimeInMode[3])
	fmt.Fprintf(&b, "energy by component:\n")
	names := make([]string, 0, len(r.EnergyByComponent))
	for name := range r.EnergyByComponent {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(&b, "  %-10s %10.1f J\n", name, r.EnergyByComponent[name])
	}
	return b.String()
}
