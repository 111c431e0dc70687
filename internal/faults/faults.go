// Package faults is a deterministic, seed-derived fault-scenario engine: it
// perturbs a generated workload trace (and the simulator's power model) the
// way a hostile environment would, without touching the golden fault-free
// path — a scenario is applied to a copy, and an empty scenario is the
// identity.
//
// The paper's policies are tuned for well-behaved exponential arrival and
// decode processes; these primitives break exactly the assumptions they rest
// on:
//
//   - Outage: the WLAN access point goes silent, then delivers the held
//     backlog as a back-to-back catch-up burst — the arrival process is
//     neither stationary nor exponential across the window.
//   - Storm: cross-traffic compresses delivery into a transient spike of the
//     arrival rate at the window's end.
//   - Corruption: frames arrive damaged; some are redecoded at a work
//     penalty, some are dropped outright.
//   - Stragglers: heavy-tailed decode-time outliers (Pareto work
//     multipliers) that an exponential service model cannot anticipate.
//   - Sag: battery voltage droop degrades DC-DC conversion efficiency,
//     scaling every component's power draw for the window's duration.
//
// Apply returns the perturbed trace plus the derating windows and an
// injection report; the graceful-degradation guardrails under test live in
// internal/policy (OverloadGuard, RateClamp) and internal/dpm (Guard).
//
// Everything is deterministic for a fixed RNG state: window membership is
// decided on the original timeline and random draws happen in a fixed order,
// so the same seed reproduces the same injection bit for bit.
package faults

import (
	"fmt"
	"sort"
	"strings"

	"smartbadge/internal/obs"
	"smartbadge/internal/sim"
	"smartbadge/internal/stats"
	"smartbadge/internal/workload"
)

// Outage silences the access point for a window: frames "sent" during it are
// held upstream and delivered back to back once the link returns.
type Outage struct {
	StartS    float64
	DurationS float64
	// CatchupRate is the back-to-back delivery rate (frames/s) at which the
	// access point drains the held backlog after the outage; frames arriving
	// while the backlog drains queue behind it.
	CatchupRate float64
}

// Validate checks the primitive.
func (o Outage) Validate() error {
	if o.StartS < 0 || o.DurationS <= 0 {
		return fmt.Errorf("faults: outage window [%v, +%v) is not a valid interval", o.StartS, o.DurationS)
	}
	if o.CatchupRate <= 0 {
		return fmt.Errorf("faults: outage catch-up rate must be positive, got %v", o.CatchupRate)
	}
	return nil
}

// Storm models cross-traffic congestion: deliveries stall and then burst, so
// the frames of the window land compressed against its end — a transient
// arrival-rate spike of factor Compress.
type Storm struct {
	StartS    float64
	DurationS float64
	// Compress is the factor by which the window's interarrival gaps shrink
	// (> 1); the burst occupies the last 1/Compress of the window.
	Compress float64
}

// Validate checks the primitive.
func (s Storm) Validate() error {
	if s.StartS < 0 || s.DurationS <= 0 {
		return fmt.Errorf("faults: storm window [%v, +%v) is not a valid interval", s.StartS, s.DurationS)
	}
	if s.Compress <= 1 {
		return fmt.Errorf("faults: storm compression must be > 1, got %v", s.Compress)
	}
	return nil
}

// Corruption damages frames in transit: with probability DropProb the payload
// is unrecoverable and the frame is removed from the trace; otherwise with
// probability RedecodeProb it is recoverable at a decode-work penalty.
type Corruption struct {
	StartS    float64
	DurationS float64
	// DropProb is the per-frame probability of an unrecoverable loss.
	DropProb float64
	// RedecodeProb is the per-frame probability (disjoint from DropProb) of
	// a recoverable corruption costing RedecodeCost times the normal work.
	RedecodeProb float64
	// RedecodeCost multiplies the decode work of a recoverable frame (>= 1).
	RedecodeCost float64
}

// Validate checks the primitive.
func (c Corruption) Validate() error {
	if c.StartS < 0 || c.DurationS <= 0 {
		return fmt.Errorf("faults: corruption window [%v, +%v) is not a valid interval", c.StartS, c.DurationS)
	}
	if c.DropProb < 0 || c.RedecodeProb < 0 || c.DropProb+c.RedecodeProb > 1 {
		return fmt.Errorf("faults: corruption probabilities (%v drop, %v redecode) must be non-negative and sum to at most 1",
			c.DropProb, c.RedecodeProb)
	}
	if c.DropProb+c.RedecodeProb == 0 {
		return fmt.Errorf("faults: corruption window with zero drop and redecode probability does nothing")
	}
	if c.RedecodeProb > 0 && c.RedecodeCost < 1 {
		return fmt.Errorf("faults: redecode cost must be >= 1, got %v", c.RedecodeCost)
	}
	return nil
}

// Stragglers injects heavy-tailed decode-time outliers: each frame of the
// window is, with probability Prob, multiplied by a Pareto(1, Shape) work
// factor.
type Stragglers struct {
	StartS    float64
	DurationS float64
	// Prob is the per-frame straggle probability.
	Prob float64
	// Shape is the Pareto tail index of the work multiplier; values in (1, 2]
	// give the infinite-variance tails that break mean-based estimators.
	Shape float64
}

// Validate checks the primitive.
func (s Stragglers) Validate() error {
	if s.StartS < 0 || s.DurationS <= 0 {
		return fmt.Errorf("faults: straggler window [%v, +%v) is not a valid interval", s.StartS, s.DurationS)
	}
	if s.Prob <= 0 || s.Prob > 1 {
		return fmt.Errorf("faults: straggler probability must be in (0, 1], got %v", s.Prob)
	}
	if s.Shape <= 0 {
		return fmt.Errorf("faults: straggler Pareto shape must be positive, got %v", s.Shape)
	}
	return nil
}

// Sag models battery voltage droop: as the supply sags, the DC-DC converters
// run less efficiently and every component draws Factor times its nominal
// input power for the window's duration.
type Sag struct {
	StartS    float64
	DurationS float64
	// Factor scales all component power draw (> 1).
	Factor float64
}

// Validate checks the primitive.
func (s Sag) Validate() error {
	if s.StartS < 0 || s.DurationS <= 0 {
		return fmt.Errorf("faults: sag window [%v, +%v) is not a valid interval", s.StartS, s.DurationS)
	}
	if s.Factor <= 1 {
		return fmt.Errorf("faults: sag factor must be > 1, got %v", s.Factor)
	}
	return nil
}

// Scenario is a named composition of fault primitives. The zero scenario
// (and Scenario{Name: "none"}) injects nothing.
type Scenario struct {
	Name        string
	Description string
	Outages     []Outage
	Storms      []Storm
	Corruptions []Corruption
	Stragglers  []Stragglers
	Sags        []Sag
}

// Empty reports whether the scenario injects nothing.
func (sc Scenario) Empty() bool {
	return len(sc.Outages) == 0 && len(sc.Storms) == 0 &&
		len(sc.Corruptions) == 0 && len(sc.Stragglers) == 0 && len(sc.Sags) == 0
}

// Validate checks every primitive and requires the time-shifting windows
// (outages and storms) to be pairwise disjoint: each remaps the arrivals of
// its own window on the original timeline, so overlap would be ambiguous.
func (sc Scenario) Validate() error {
	type span struct{ startS, endS float64 }
	var shifting []span
	for _, o := range sc.Outages {
		if err := o.Validate(); err != nil {
			return err
		}
		shifting = append(shifting, span{o.StartS, o.StartS + o.DurationS})
	}
	for _, s := range sc.Storms {
		if err := s.Validate(); err != nil {
			return err
		}
		shifting = append(shifting, span{s.StartS, s.StartS + s.DurationS})
	}
	sort.Slice(shifting, func(i, j int) bool { return shifting[i].startS < shifting[j].startS })
	for i := 1; i < len(shifting); i++ {
		if shifting[i].startS < shifting[i-1].endS {
			return fmt.Errorf("faults: scenario %q has overlapping outage/storm windows [%v, %v) and [%v, %v)",
				sc.Name, shifting[i-1].startS, shifting[i-1].endS, shifting[i].startS, shifting[i].endS)
		}
	}
	for _, c := range sc.Corruptions {
		if err := c.Validate(); err != nil {
			return err
		}
	}
	for _, s := range sc.Stragglers {
		if err := s.Validate(); err != nil {
			return err
		}
	}
	for _, s := range sc.Sags {
		if err := s.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// Report summarises one injection.
type Report struct {
	// Scenario is the applied scenario's name.
	Scenario string
	// FramesIn and FramesOut count the trace's frames before and after
	// injection (they differ by Dropped).
	FramesIn  int
	FramesOut int
	// Delayed counts frames whose arrival an outage or storm moved.
	Delayed int
	// Dropped counts frames removed by corruption.
	Dropped int
	// Redecoded counts frames whose work a recoverable corruption inflated.
	Redecoded int
	// Straggled counts frames given a heavy-tailed work multiplier.
	Straggled int
	// OutageS is the total access-point silence injected.
	OutageS float64
	// SagWindows counts the power-derating windows handed to the simulator.
	SagWindows int
}

// Injection is the result of applying a scenario to a trace.
type Injection struct {
	// Trace is the perturbed copy; the input trace is never mutated.
	Trace *workload.Trace
	// Derate carries the sag windows for sim.Config.Derate.
	Derate []sim.PowerDerate
	Report Report
}

// Apply injects the scenario into a copy of tr, drawing all randomness from
// rng in a fixed order. Window membership is decided on the original arrival
// times, so time-shifting primitives compose predictably. The oracle
// rate-change schedule is deliberately left at the nominal rates: faults are
// precisely what the "ideal" detector's model does not know about. o may be
// nil; when set, per-window injections are traced as "fault" events and
// totals land in "faults.*" counters.
func Apply(rng *stats.RNG, tr *workload.Trace, sc Scenario, o *obs.Obs) (*Injection, error) {
	if rng == nil {
		return nil, fmt.Errorf("faults: nil RNG")
	}
	if tr == nil || len(tr.Frames) == 0 {
		return nil, fmt.Errorf("faults: empty trace")
	}
	if err := sc.Validate(); err != nil {
		return nil, err
	}

	frames := make([]workload.TraceFrame, len(tr.Frames))
	copy(frames, tr.Frames)
	origA := make([]float64, len(frames))
	for i, f := range frames {
		origA[i] = f.Arrival
	}
	dropped := make([]bool, len(frames))

	inj := &Injection{Report: Report{Scenario: sc.Name, FramesIn: len(frames)}}
	rep := &inj.Report
	tracer := o.Tracer()
	reg := o.Registry()
	cDelayed := reg.Counter("faults.frames_delayed")
	cDropped := reg.Counter("faults.frames_dropped")
	cRedecoded := reg.Counter("faults.frames_redecoded")
	cStraggled := reg.Counter("faults.frames_straggled")

	// Time-shifting primitives, in window order on the original timeline.
	outages := append([]Outage(nil), sc.Outages...)
	sort.Slice(outages, func(i, j int) bool { return outages[i].StartS < outages[j].StartS })
	for _, w := range outages {
		endS := w.StartS + w.DurationS
		gapS := 1 / w.CatchupRate
		drainS := endS
		held := 0
		for i := range frames {
			a := origA[i]
			if a < w.StartS {
				continue
			}
			if a >= endS && a >= drainS {
				break // the backlog has drained; later frames are untouched
			}
			// Held during the outage, or arriving while the backlog drains:
			// delivered at the catch-up rate behind everything queued so far.
			frames[i].Arrival = drainS
			drainS += gapS
			held++
		}
		rep.Delayed += held
		rep.OutageS += w.DurationS
		if tracer != nil {
			tracer.Emit(obs.Event{T: w.StartS, Kind: "fault", Comp: "outage",
				DelayS: w.DurationS, Detail: fmt.Sprintf("held %d frames, catch-up %g fr/s", held, w.CatchupRate)})
		}
	}

	storms := append([]Storm(nil), sc.Storms...)
	sort.Slice(storms, func(i, j int) bool { return storms[i].StartS < storms[j].StartS })
	for _, w := range storms {
		endS := w.StartS + w.DurationS
		n := 0
		for i := range frames {
			a := origA[i]
			if a < w.StartS {
				continue
			}
			if a >= endS {
				break
			}
			// Stall, then burst: the window's frames land in its last
			// 1/Compress, preserving order — a λU spike of factor Compress.
			frames[i].Arrival = endS - (endS-a)/w.Compress
			n++
		}
		rep.Delayed += n
		if tracer != nil {
			tracer.Emit(obs.Event{T: w.StartS, Kind: "fault", Comp: "storm",
				DelayS: w.DurationS, Detail: fmt.Sprintf("compressed %d frames by %gx", n, w.Compress)})
		}
	}

	// Work perturbations and drops. Draw order is fixed (corruptions then
	// stragglers, frames in order), so the injection is reproducible.
	for _, w := range sc.Corruptions {
		endS := w.StartS + w.DurationS
		n := 0
		for i := range frames {
			a := origA[i]
			if a < w.StartS {
				continue
			}
			if a >= endS {
				break
			}
			if dropped[i] {
				continue
			}
			switch u := rng.Float64(); {
			case u < w.DropProb:
				dropped[i] = true
				rep.Dropped++
			case u < w.DropProb+w.RedecodeProb:
				frames[i].Work *= w.RedecodeCost
				rep.Redecoded++
			}
			n++
		}
		if tracer != nil {
			tracer.Emit(obs.Event{T: w.StartS, Kind: "fault", Comp: "corruption",
				DelayS: w.DurationS, Detail: fmt.Sprintf("%d frames exposed", n)})
		}
	}

	for _, w := range sc.Stragglers {
		endS := w.StartS + w.DurationS
		n := 0
		for i := range frames {
			a := origA[i]
			if a < w.StartS {
				continue
			}
			if a >= endS {
				break
			}
			if rng.Float64() < w.Prob {
				frames[i].Work *= rng.Pareto(1, w.Shape)
				rep.Straggled++
				n++
			}
		}
		if tracer != nil {
			tracer.Emit(obs.Event{T: w.StartS, Kind: "fault", Comp: "stragglers",
				DelayS: w.DurationS, Detail: fmt.Sprintf("%d frames straggled", n)})
		}
	}

	for _, w := range sc.Sags {
		inj.Derate = append(inj.Derate, sim.PowerDerate{
			StartS: w.StartS,
			EndS:   w.StartS + w.DurationS,
			Factor: w.Factor,
		})
		rep.SagWindows++
		if tracer != nil {
			tracer.Emit(obs.Event{T: w.StartS, Kind: "fault", Comp: "sag",
				DelayS: w.DurationS, Value: w.Factor})
		}
	}

	// Safety net: the per-window remappings preserve arrival order, but keep
	// the invariant explicit — the simulator requires non-decreasing
	// arrivals per frame index (an earlier arrival would run its clock
	// backwards, an internal error).
	for i := 1; i < len(frames); i++ {
		if frames[i].Arrival < frames[i-1].Arrival {
			frames[i].Arrival = frames[i-1].Arrival
		}
	}

	// Drop filter + re-index: the simulator addresses frames by index and
	// requires Seq == index.
	out := frames[:0]
	for i := range frames {
		if dropped[i] {
			continue
		}
		f := frames[i]
		f.Seq = len(out)
		out = append(out, f)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("faults: scenario %q dropped every frame", sc.Name)
	}
	rep.FramesOut = len(out)

	cDelayed.Add(float64(rep.Delayed))
	cDropped.Add(float64(rep.Dropped))
	cRedecoded.Add(float64(rep.Redecoded))
	cStraggled.Add(float64(rep.Straggled))

	inj.Trace = &workload.Trace{
		Frames:   out,
		Changes:  tr.Changes,
		Duration: out[len(out)-1].Arrival,
		IdleGaps: tr.IdleGaps,
		Kind:     tr.Kind,
		Clips:    tr.Clips,
	}
	return inj, nil
}

// String renders a one-line report summary.
func (r Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "scenario %s: %d -> %d frames", r.Scenario, r.FramesIn, r.FramesOut)
	if r.Delayed > 0 {
		fmt.Fprintf(&b, ", %d delayed", r.Delayed)
	}
	if r.Dropped > 0 {
		fmt.Fprintf(&b, ", %d dropped", r.Dropped)
	}
	if r.Redecoded > 0 {
		fmt.Fprintf(&b, ", %d redecoded", r.Redecoded)
	}
	if r.Straggled > 0 {
		fmt.Fprintf(&b, ", %d straggled", r.Straggled)
	}
	if r.OutageS > 0 {
		fmt.Fprintf(&b, ", %.1f s offline", r.OutageS)
	}
	if r.SagWindows > 0 {
		fmt.Fprintf(&b, ", %d sag windows", r.SagWindows)
	}
	return b.String()
}
