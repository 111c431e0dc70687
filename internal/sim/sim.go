// Package sim is the discrete-event simulator of the whole SmartBadge system
// model (Figure 1 of the paper): the workload source streaming frames over
// the WLAN, the frame buffer, the decoding device with its DVS-capable
// processor, and the power manager that observes every event, adjusts CPU
// frequency and voltage in the active state, and commands standby/off
// transitions in the idle state.
//
// The simulator integrates per-component energy over the exact state
// trajectory the policies induce, which is the quantity every table of the
// paper's evaluation reports.
package sim

import (
	"fmt"
	"sort"

	"smartbadge/internal/device"
	"smartbadge/internal/dpm"
	"smartbadge/internal/obs"
	"smartbadge/internal/perfmodel"
	"smartbadge/internal/policy"
	"smartbadge/internal/queue"
	"smartbadge/internal/sa1100"
	"smartbadge/internal/stats"
	"smartbadge/internal/workload"
)

// Mode is the simulator's global operating mode, which determines every
// component's power state.
type Mode int

// The four modes the badge cycles through.
const (
	// ModeDecode: a frame is being decoded. CPU at the current operating
	// point, decode memory + FLASH + WLAN active, display active for video.
	ModeDecode Mode = iota
	// ModeAwakeIdle: powered up but between frames (buffer empty or waiting
	// for the decoder). Every component in its idle state.
	ModeAwakeIdle
	// ModeSleep: the power manager put the badge in standby or off.
	ModeSleep
	// ModeWake: transitioning from sleep back to active; everything powered
	// while nothing useful runs — this is where the transition energy goes.
	ModeWake
	numModes
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeDecode:
		return "decode"
	case ModeAwakeIdle:
		return "idle"
	case ModeSleep:
		return "sleep"
	case ModeWake:
		return "wake"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// idleResetGapS: an arrival after at least this much idle time starts a fresh
// burst — the gap sample is NOT fed to the arrival estimator, since the
// paper's exponential arrival model holds only in the active state.
const idleResetGapS = 1.0

// wlanRxS is the radio's active receive time per frame. The WLAN's energy
// follows the *arrival* stream, not the decode schedule: each frame costs a
// fixed RX burst and the radio otherwise sits in its idle (listening) state
// while the badge is awake, so slowing the CPU down does not inflate radio
// energy.
const wlanRxS = 0.004

// Config assembles one simulation run.
type Config struct {
	Badge *device.Badge
	Proc  *sa1100.Processor
	Trace *workload.Trace
	// Controller drives DVS; its estimators define the policy under test.
	Controller *policy.Controller
	// DPM decides standby/off transitions at idle entry. nil means AlwaysOn.
	DPM dpm.Policy
	// Kind selects which data memory is active during decode (SRAM for MP3,
	// DRAM for MPEG) and whether the display is on during playback. Traces
	// generated from a clip list override this per clip, so mixed audio/video
	// sequences (the Table 5 scenario) account each burst correctly.
	Kind workload.Kind
	// BufferCap bounds the frame buffer (the real SmartBadge has finite
	// memory for buffered frames). Arrivals to a full buffer are dropped and
	// counted in Result.FramesDropped. 0 means unbounded.
	BufferCap int
	// RecordTimeline retains the mode timeline in Result.Timeline
	// (see FormatTimeline). Off by default: long runs produce many spans.
	RecordTimeline bool
	// Obs attaches the observability layer: when non-nil, the simulator
	// streams structured events (arrivals, decodes, operating-point changes,
	// sleep/wake transitions, per-mode energy) to Obs.Trace and publishes the
	// run's metrics to Obs.Metrics at the end of Run. nil is a zero-overhead
	// fast path: results are bit-identical with and without observability.
	Obs *obs.Obs
	// QueuePolicy, when non-nil, overrides the rate-based controller's
	// operating-point choice at every decode start with a function of the
	// buffer occupancy — the interface the queue-aware MDP policy
	// (internal/mdp) plugs into. The Controller is still required: its
	// estimators keep running and its delay target defines the QoS counters.
	QueuePolicy QueuePolicy
	// Guard, when non-nil, is the overload watchdog (graceful degradation
	// under fault injection): the simulator reports buffer occupancy and the
	// controller's demand ratio at every buffer-changing event, and while the
	// guard is engaged every decode starts at the maximum operating point
	// regardless of the controller's (or QueuePolicy's) selection. nil — the
	// default and the fault-free configuration — changes nothing.
	Guard *policy.OverloadGuard
	// Derate lists power-derating windows (battery voltage sag injected by
	// internal/faults: a sagging supply drags down DC-DC conversion
	// efficiency, so every component draws more input power for the same
	// work). All draw inside [StartS, EndS) is multiplied by Factor. Windows
	// must be non-overlapping; nil leaves the power model untouched.
	Derate []PowerDerate
	// Scratch, when non-nil, recycles the hot-path allocations
	// (per-component energy accumulators, power vectors, the frame FIFO) from
	// a previous run — the per-shard reuse the fleet batch engine
	// (internal/fleet) relies on. Results are bit-identical with and without
	// a Scratch; a Scratch must never be used by two simulations
	// concurrently. nil allocates fresh state as always.
	Scratch *Scratch
}

// Scratch holds reusable per-run simulator state. A zero Scratch is ready to
// use; it warms up over the first run and is handed back when Run completes.
// One Scratch serves any sequence of configurations — slices are resized to
// the badge, and the frame FIFO is emptied, its peak zeroed and its grown
// capacity kept — but only one run at a time.
type Scratch struct {
	energy     []float64
	lastEnergy []float64
	power      [numModes][]float64
	buffer     queue.Buffer
}

// NewScratch returns an empty scratch.
func NewScratch() *Scratch { return &Scratch{} }

// resizeZero returns buf resized to n and zeroed, reallocating only when the
// capacity is insufficient.
func resizeZero(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	buf = buf[:n]
	for i := range buf {
		buf[i] = 0
	}
	return buf
}

// PowerDerate scales every component's power draw by Factor during
// [StartS, EndS).
type PowerDerate struct {
	StartS float64
	EndS   float64
	Factor float64
}

// QueuePolicy selects the operating point from the buffer occupancy at the
// moment a frame's decode starts.
type QueuePolicy interface {
	// OperatingPointFor returns the point to decode at when queueLen frames
	// are buffered (including the one about to decode).
	OperatingPointFor(queueLen int) sa1100.OperatingPoint
}

// Result is the outcome of one run: the numbers the paper's tables report
// plus diagnostics.
type Result struct {
	// EnergyJ is total badge energy from t=0 until the last frame finished
	// decoding.
	EnergyJ float64
	// EnergyByComponent maps component name to joules.
	EnergyByComponent map[string]float64
	// EnergyByMode splits energy across the four modes.
	EnergyByMode [4]float64
	// TimeInMode splits wall-clock time across the four modes.
	TimeInMode [4]float64
	// SimTime is the simulated duration (s).
	SimTime float64
	// FramesDecoded counts completed frames.
	FramesDecoded int
	// FramesDropped counts arrivals discarded because the buffer was full
	// (only with a finite Config.BufferCap).
	FramesDropped int
	// FrameDelay aggregates per-frame total delay (arrival to decode
	// completion) — the paper's performance metric.
	FrameDelay stats.Moments
	// DelayOverTarget and DelayOver2xTarget count frames whose total delay
	// exceeded the controller's delay target (respectively twice it) — the
	// QoS view of the same metric.
	DelayOverTarget   int
	DelayOver2xTarget int
	// QueueLen is the time-weighted buffer occupancy.
	QueueLen stats.TimeWeighted
	// PeakQueue is the maximum buffer occupancy.
	PeakQueue int
	// Reconfigurations counts operating-point changes applied.
	Reconfigurations int
	// Sleeps counts standby/off transitions taken.
	Sleeps int
	// Deepens counts standby-to-off deepening transitions.
	Deepens int
	// AvgPowerW is EnergyJ / SimTime.
	AvgPowerW float64
	// GuardTrips counts overload-watchdog engagements (0 without a guard or
	// when the run never overloaded).
	GuardTrips int
	// GuardEngagedS is the total time the watchdog held the processor at
	// maximum performance (safe mode).
	GuardEngagedS float64
	// FreqTime is the time-weighted average CPU frequency while decoding.
	FreqTime stats.TimeWeighted
	// Timeline holds the mode spans when Config.RecordTimeline is set.
	Timeline []ModeSpan
}

// eventKind indexes the simulator's pending-event slots. The badge has one
// frame buffer and one decoder, and its power manager decides only at idle
// entry, so at most one event of each kind is ever pending: the next
// arrival, the current decode, one sleep/deepen timer pair and one wake-up.
type eventKind int

const (
	evArrival eventKind = iota
	evDecodeDone
	evSleepTimer
	evDeepenTimer
	evWakeDone
	numEventKinds
)

type event struct {
	time   float64
	seq    int64 // schedule order, from 1; 0 marks an empty slot
	frame  int
	target device.PowerState // sleep or deepen timer's destination state
}

// InternalError reports a violated simulator invariant — a bug in the
// simulator or a configuration hostile enough to evade validation, never a
// normal outcome. Internally it travels as a panic (the invariant checks sit
// on hot paths that have no error return), but Run recovers it and returns it
// wrapped, so library callers and parallel sweep workers fail loudly per run
// instead of killing the whole process. Reason carries the original panic
// text; match with errors.As.
type InternalError struct {
	Reason string
}

// Error implements error.
func (e *InternalError) Error() string { return "sim: internal error: " + e.Reason }

// internalf panics with an *InternalError for Run to recover.
func internalf(format string, args ...any) {
	panic(&InternalError{Reason: fmt.Sprintf(format, args...)})
}

// Simulator executes one run. Create with New, drive with Run.
type Simulator struct {
	cfg   Config
	badge []device.Component
	now   float64
	mode  Mode
	// appliedOp is the operating point the decoder actually runs at;
	// the controller's selection is applied at frame boundaries.
	appliedOp sa1100.OperatingPoint
	buffer    *queue.Buffer
	// pending holds one slot per event kind (see eventKind); seq counts the
	// events scheduled so far.
	pending  [numEventKinds]event
	seq      int64
	decoding bool
	// sleepState is the low-power state while in ModeSleep.
	sleepState device.PowerState
	idleSince  float64
	lastArrive float64
	haveArrive bool
	nextFrame  int
	// curKind is the application kind of the burst currently streaming,
	// taken from the arriving frame's clip.
	curKind workload.Kind
	res     Result

	// Hot-path caches. energyComp accumulates joules per component in badge
	// order (materialised into Result.EnergyByComponent once, at the end of
	// Run). powerVec caches the per-component power vector of each mode;
	// powerOK invalidates a mode's vector when an input it depends on changes
	// (appliedOp → decode/wake, curKind → decode/idle, sleepState → sleep).
	energyComp []float64
	powerVec   [numModes][]float64
	powerOK    [numModes]bool
	// wlanIdx/sramIdx/dramIdx locate the components charged per-event
	// (-1 when absent from the badge); wlanRxE and memCoef precompute the
	// constant factors of those per-event charges.
	wlanIdx, sramIdx, dramIdx int
	wlanRxE                   float64
	sramCoef, dramCoef        float64
	// derate is Config.Derate validated and sorted by start time (a copy, so
	// the caller's slice is never mutated). Empty on the fault-free path,
	// where it costs a single len check per charge.
	derate []PowerDerate

	// Observability (all nil/empty when Config.Obs is nil — the fast path).
	// tr is the event tracer; lastEnergy snapshots energyComp at the last
	// energy event so per-mode deltas can be emitted. mDelay is the frame
	// delay histogram handle (nil-safe), opResidency accumulates decode time
	// per operating-point frequency for the residency metrics.
	tr          *obs.Tracer
	lastEnergy  []float64
	mDelay      *obs.Histogram
	opResidency map[float64]float64
}

// New validates the configuration and returns a ready simulator.
func New(cfg Config) (*Simulator, error) {
	if cfg.Badge == nil || cfg.Proc == nil || cfg.Trace == nil || cfg.Controller == nil {
		return nil, fmt.Errorf("sim: badge, processor, trace and controller are all required")
	}
	if len(cfg.Trace.Frames) == 0 {
		return nil, fmt.Errorf("sim: empty trace")
	}
	if cfg.DPM == nil {
		cfg.DPM = dpm.AlwaysOn{}
	}
	if cfg.BufferCap < 0 {
		return nil, fmt.Errorf("sim: negative buffer capacity")
	}
	derate, err := sortedDerate(cfg.Derate)
	if err != nil {
		return nil, err
	}
	s := &Simulator{
		cfg:       cfg,
		badge:     cfg.Badge.Components(),
		mode:      ModeAwakeIdle,
		appliedOp: cfg.Controller.Current(),
		curKind:   cfg.Kind,
		derate:    derate,
	}
	if sc := cfg.Scratch; sc != nil {
		// Recycle the previous run's allocations. The FIFO is emptied and
		// energy accumulators are zeroed; power vectors of the right length
		// are adopted as raw capacity: powerOK starts false for every mode,
		// so modePower rebuilds each vector before its first read.
		sc.buffer.Reset()
		s.buffer = &sc.buffer
		s.energyComp = resizeZero(sc.energy, len(s.badge))
		for m := range sc.power {
			if len(sc.power[m]) == len(s.badge) {
				s.powerVec[m] = sc.power[m]
			}
		}
	} else {
		s.buffer = queue.NewBuffer()
		s.energyComp = make([]float64, len(s.badge))
	}
	s.wlanIdx, s.sramIdx, s.dramIdx = -1, -1, -1
	for i, c := range s.badge {
		switch c.Name {
		case device.NameWLAN:
			s.wlanIdx = i
			s.wlanRxE = (c.Power(device.Active) - c.Power(device.Idle)) * wlanRxS
		case device.NameSRAM:
			s.sramIdx = i
			s.sramCoef = (c.Power(device.Active) - c.Power(device.Idle)) * perfmodel.MP3Curve().MemFraction
		case device.NameDRAM:
			s.dramIdx = i
			s.dramCoef = (c.Power(device.Active) - c.Power(device.Idle)) * perfmodel.MPEGCurve().MemFraction
		}
	}
	if cfg.Obs != nil {
		if s.tr = cfg.Obs.Tracer(); s.tr != nil {
			s.tr.SetClock(func() float64 { return s.now })
			if sc := cfg.Scratch; sc != nil {
				s.lastEnergy = resizeZero(sc.lastEnergy, len(s.badge))
			} else {
				s.lastEnergy = make([]float64, len(s.badge))
			}
		}
		if reg := cfg.Obs.Registry(); reg != nil {
			s.mDelay = reg.Histogram("sim.frame_delay_s", delayBuckets)
			s.opResidency = make(map[float64]float64, 8)
		}
	}
	return s, nil
}

// delayBuckets spans the paper's delay targets (0.1 s video, 0.15 s audio)
// with resolution on both sides of the constraint.
var delayBuckets = []float64{0.01, 0.02, 0.05, 0.1, 0.15, 0.2, 0.3, 0.5, 1, 2, 5}

// sortedDerate validates the derating windows and returns them sorted by
// start time.
func sortedDerate(windows []PowerDerate) ([]PowerDerate, error) {
	if len(windows) == 0 {
		return nil, nil
	}
	out := make([]PowerDerate, len(windows))
	copy(out, windows)
	sort.Slice(out, func(i, j int) bool { return out[i].StartS < out[j].StartS })
	for i, w := range out {
		if w.StartS < 0 || w.EndS <= w.StartS {
			return nil, fmt.Errorf("sim: derate window [%v, %v) is not a valid interval", w.StartS, w.EndS)
		}
		if w.Factor <= 0 {
			return nil, fmt.Errorf("sim: derate factor must be positive, got %v", w.Factor)
		}
		if i > 0 && w.StartS < out[i-1].EndS {
			return nil, fmt.Errorf("sim: derate windows [%v, %v) and [%v, %v) overlap",
				out[i-1].StartS, out[i-1].EndS, w.StartS, w.EndS)
		}
	}
	return out, nil
}

// setMode switches the operating mode, flushing the per-component energy
// accrued in the outgoing mode to the tracer first so every trace segment is
// attributed to the mode it was spent in. Callers must chargeTo the switch
// time before calling. With no tracer this is a plain assignment.
func (s *Simulator) setMode(m Mode) {
	if s.tr != nil && m != s.mode {
		s.emitEnergy()
	}
	s.mode = m
}

// emitEnergy emits one "energy" event carrying the per-component joules
// accrued since the previous energy event, labelled with the current mode.
// The sum of these deltas over a whole trace equals Result.EnergyByComponent.
func (s *Simulator) emitEnergy() {
	var deltas map[string]float64
	for i, e := range s.energyComp {
		if d := e - s.lastEnergy[i]; d != 0 {
			if deltas == nil {
				deltas = make(map[string]float64, len(s.badge))
			}
			deltas[s.badge[i].Name] = d
			s.lastEnergy[i] = e
		}
	}
	if deltas != nil {
		s.tr.Emit(obs.Event{T: s.now, Kind: "energy", Mode: s.mode.String(), Energy: deltas})
	}
}

// componentPower returns the component's draw in the current mode.
//
// Activity model: only the CPU, the decode memory (SRAM for audio, DRAM for
// video) and the FLASH scale with decode time — those are the components DVS
// legitimately trades off against. The display follows *playback* (on for
// the whole awake time of a video burst, dark for audio) and the WLAN
// follows *arrivals* (fixed RX energy per frame, charged in handleArrival,
// listening-idle otherwise), so neither is distorted by how slowly the CPU
// chooses to decode.
func (s *Simulator) componentPower(c device.Component) float64 {
	switch s.mode {
	case ModeDecode, ModeAwakeIdle:
		switch c.Name {
		case device.NameCPU:
			if s.mode == ModeDecode {
				return s.appliedOp.ActivePowerW
			}
			return c.Power(device.Idle)
		case device.NameSRAM, device.NameDRAM:
			// Data-memory access time is fixed per frame (the memory
			// fraction M of the full-speed decode time), so it is charged
			// as a per-frame lump in handleDecodeDone; here the memory
			// draws its idle power.
			return c.Power(device.Idle)
		case device.NameFlash:
			if s.mode == ModeDecode {
				return c.Power(device.Active)
			}
			return c.Power(device.Idle)
		case device.NameDisplay:
			if s.curKind == workload.MPEG {
				return c.Power(device.Active)
			}
			return c.Power(device.Idle)
		default: // WLAN: listening; per-frame RX bursts are charged separately
			return c.Power(device.Idle)
		}
	case ModeSleep:
		return c.Power(s.sleepState)
	case ModeWake:
		// Everything powers up in parallel; nothing useful runs. The CPU
		// comes up at the point it will decode at.
		if c.Name == device.NameCPU {
			return s.appliedOp.ActivePowerW
		}
		return c.Power(device.Active)
	default:
		internalf("bad mode %v", s.mode)
		return 0 // unreachable
	}
}

// modePower returns the cached per-component power vector for the current
// mode, rebuilding it only when an input it depends on changed since the
// last rebuild (see powerOK).
func (s *Simulator) modePower() []float64 {
	m := s.mode
	if !s.powerOK[m] {
		pv := s.powerVec[m]
		if pv == nil {
			pv = make([]float64, len(s.badge))
			s.powerVec[m] = pv
		}
		for i, c := range s.badge {
			pv[i] = s.componentPower(c)
		}
		s.powerOK[m] = true
	}
	return s.powerVec[m]
}

// chargeTo integrates energy from s.now to t in the current mode: a dot
// product of the cached power vector with dt, accumulated into the
// index-addressed per-component totals (no map writes, no per-component
// state dispatch on the hot path).
func (s *Simulator) chargeTo(t float64) {
	dt := t - s.now
	if dt < 0 {
		internalf("time went backwards: %v -> %v", s.now, t)
	}
	if dt > 0 {
		s.recordSpan(s.now, t)
		pv := s.modePower()
		// Under a voltage-sag derating window the same power vector costs
		// more input energy; fold the overlap into an effective duration so
		// the hot loop below stays a plain dot product.
		edt := dt
		if len(s.derate) > 0 {
			edt += s.derateExtra(s.now, t)
		}
		for i, p := range pv {
			e := p * edt
			s.energyComp[i] += e
			s.res.EnergyJ += e
			s.res.EnergyByMode[s.mode] += e
		}
		s.res.TimeInMode[s.mode] += dt
		s.res.QueueLen.Add(float64(s.buffer.Len()), dt)
		if s.mode == ModeDecode {
			s.res.FreqTime.Add(s.appliedOp.FrequencyMHz, dt)
			if s.opResidency != nil {
				s.opResidency[s.appliedOp.FrequencyMHz] += dt
			}
		}
	}
	s.now = t
}

// derateExtra returns the additional effective integration time contributed
// by derating windows overlapping [t0, t1]: for each overlap of length d with
// factor f, the energy surcharge equals power x d x (f-1).
func (s *Simulator) derateExtra(t0, t1 float64) float64 {
	extra := 0.0
	for _, w := range s.derate {
		if w.EndS <= t0 {
			continue
		}
		if w.StartS >= t1 {
			break // sorted by start: no later window overlaps either
		}
		lo, hi := w.StartS, w.EndS
		if lo < t0 {
			lo = t0
		}
		if hi > t1 {
			hi = t1
		}
		extra += (w.Factor - 1) * (hi - lo)
	}
	return extra
}

// derateFactorAt returns the derating factor in force at time tm (1 outside
// every window) — applied to the instantaneous per-event energy lumps (WLAN
// RX bursts, data-memory access).
func (s *Simulator) derateFactorAt(tm float64) float64 {
	for _, w := range s.derate {
		if tm < w.StartS {
			break
		}
		if tm < w.EndS {
			return w.Factor
		}
	}
	return 1
}

// schedule fills kind k's slot with e, stamping its schedule order. The slot
// must be empty: the one-event-per-kind premise is checked, not assumed.
func (s *Simulator) schedule(k eventKind, e event) {
	if s.pending[k].seq != 0 {
		internalf("event kind %d scheduled while one is pending", k)
	}
	s.seq++
	e.seq = s.seq
	s.pending[k] = e
}

// next empties and returns the occupied slot with the least (time, seq);
// ok is false when no event is pending. Events due at the same time pop in
// the order they were scheduled, whatever their kind.
func (s *Simulator) next() (k eventKind, e event, ok bool) {
	for i := range s.pending {
		p := &s.pending[i]
		if p.seq != 0 && (!ok || p.time < e.time || p.time == e.time && p.seq < e.seq) {
			k, e, ok = eventKind(i), *p, true
		}
	}
	if ok {
		s.pending[k] = event{}
	}
	return k, e, ok
}

// cancelTimers empties the sleep and deepen slots: an arrival has ended the
// idle period that armed them.
func (s *Simulator) cancelTimers() {
	s.pending[evSleepTimer] = event{}
	s.pending[evDeepenTimer] = event{}
}

// scheduleNextArrival fills the arrival slot with the next trace frame, if
// any.
func (s *Simulator) scheduleNextArrival() {
	if s.nextFrame < len(s.cfg.Trace.Frames) {
		s.schedule(evArrival, event{time: s.cfg.Trace.Frames[s.nextFrame].Arrival, frame: s.nextFrame})
		s.nextFrame++
	}
}

// startDecodeIfPossible begins decoding the head-of-line frame when the
// device is awake and the decoder is free.
func (s *Simulator) startDecodeIfPossible() {
	if s.decoding || s.buffer.Empty() || s.mode == ModeSleep || s.mode == ModeWake {
		return
	}
	f := s.buffer.Peek()
	// Apply any pending operating-point change at the frame boundary.
	target := s.cfg.Controller.Current()
	if s.cfg.QueuePolicy != nil {
		target = s.cfg.QueuePolicy.OperatingPointFor(s.buffer.Len())
	}
	if s.cfg.Guard.Engaged() {
		// Watchdog safe mode: decode flat out until the backlog clears.
		target = s.cfg.Proc.Max()
	}
	extra := 0.0
	if target != s.appliedOp {
		if s.tr != nil {
			s.tr.Emit(obs.Event{T: s.now, Kind: "op_change",
				FromMHz: s.appliedOp.FrequencyMHz, ToMHz: target.FrequencyMHz})
		}
		s.appliedOp = target
		s.powerOK[ModeDecode] = false
		s.powerOK[ModeWake] = false
		extra = s.cfg.Proc.SwitchLatency()
		s.res.Reconfigurations++
	}
	perf := s.cfg.Controller.Curve.PerfRatio(s.appliedOp.FrequencyMHz / s.cfg.Proc.Max().FrequencyMHz)
	if perf <= 0 {
		internalf("zero performance at selected operating point (%g MHz)", s.appliedOp.FrequencyMHz)
	}
	s.setMode(ModeDecode)
	s.decoding = true
	if s.tr != nil {
		s.tr.Emit(obs.Event{T: s.now, Kind: "decode_start", Frame: f.Seq + 1,
			Queue: s.buffer.Len(), ToMHz: s.appliedOp.FrequencyMHz})
	}
	s.schedule(evDecodeDone, event{time: s.now + extra + f.Work/perf, frame: f.Seq})
}

// enterIdle handles the transition into the idle state: the paper's single
// DPM decision point.
func (s *Simulator) enterIdle() {
	s.setMode(ModeAwakeIdle)
	if s.tr != nil {
		s.tr.Emit(obs.Event{T: s.now, Kind: "idle_enter", Queue: s.buffer.Len()})
	}
	s.idleSince = s.now
	next := s.peekNextArrivalTime()
	if next < 0 {
		return // no more arrivals: the run is draining, never sleep
	}
	// Oracle information: the true length of the idle period just starting.
	dec := s.cfg.DPM.Decide(next - s.now)
	if dec.Sleep {
		s.schedule(evSleepTimer, event{time: s.now + dec.Timeout, target: dec.Target})
		if dec.DeepenAfter > 0 {
			s.schedule(evDeepenTimer, event{time: s.now + dec.Timeout + dec.DeepenAfter, target: dec.DeepenTarget})
		}
	}
}

// peekNextArrivalTime returns the pending arrival's time, or -1 when the
// trace is exhausted.
func (s *Simulator) peekNextArrivalTime() float64 {
	if a := &s.pending[evArrival]; a.seq != 0 {
		return a.time
	}
	return -1
}

// Run executes the simulation to completion and returns the result. A
// violated internal invariant surfaces as a wrapped *InternalError rather
// than a panic (see InternalError); any other panic propagates unchanged.
func (s *Simulator) Run() (_ *Result, err error) {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		ie, ok := r.(*InternalError)
		if !ok {
			panic(r)
		}
		err = fmt.Errorf("sim: run aborted at t=%.6f: %w", s.now, ie)
	}()
	if s.nextFrame != 0 || s.now != 0 {
		return nil, fmt.Errorf("sim: Run may only be called once")
	}
	s.scheduleNextArrival()
	s.enterIdle()
	frames := s.cfg.Trace.Frames
	for k, e, ok := s.next(); ok; k, e, ok = s.next() {
		s.chargeTo(e.time)
		switch k {
		case evArrival:
			s.handleArrival(frames[e.frame])
			s.scheduleNextArrival()
		case evDecodeDone:
			s.handleDecodeDone(frames[e.frame])
		case evSleepTimer:
			// The arrival that ends an idle period cancels both of its
			// timers, so the sleep timer fires in the awake idle that armed
			// it and the deepen timer in the sleep the sleep timer began.
			if s.mode != ModeAwakeIdle {
				internalf("sleep timer fired in %v mode", s.mode)
			}
			s.setMode(ModeSleep)
			s.setSleepState(e.target)
			s.res.Sleeps++
			if s.tr != nil {
				s.tr.Emit(obs.Event{T: s.now, Kind: "sleep", Target: e.target.String()})
			}
		case evDeepenTimer:
			if s.mode != ModeSleep {
				internalf("deepen timer fired in %v mode", s.mode)
			}
			if s.tr != nil {
				// The sleep-state power changes here: flush the energy accrued
				// in the shallower state before deepening.
				s.emitEnergy()
				s.tr.Emit(obs.Event{T: s.now, Kind: "deepen", Target: e.target.String()})
			}
			s.setSleepState(e.target)
			s.res.Deepens++
		case evWakeDone:
			s.setMode(ModeAwakeIdle)
			if s.tr != nil {
				s.tr.Emit(obs.Event{T: s.now, Kind: "wake_done", Queue: s.buffer.Len()})
			}
			s.startDecodeIfPossible()
		}
	}
	s.res.SimTime = s.now
	if s.now > 0 {
		s.res.AvgPowerW = s.res.EnergyJ / s.now
	}
	// Materialise the per-component energy map once, from the hot-path
	// index-addressed accumulator.
	s.res.EnergyByComponent = make(map[string]float64, len(s.badge))
	for i, c := range s.badge {
		s.res.EnergyByComponent[c.Name] = s.energyComp[i]
	}
	s.res.PeakQueue = s.buffer.Peak()
	if s.cfg.Guard != nil {
		st := s.cfg.Guard.Stats(s.now)
		s.res.GuardTrips = st.Trips
		s.res.GuardEngagedS = st.EngagedS
	}
	if s.res.FramesDecoded+s.res.FramesDropped != len(frames) {
		return nil, fmt.Errorf("sim: decoded %d + dropped %d of %d frames",
			s.res.FramesDecoded, s.res.FramesDropped, len(frames))
	}
	if s.tr != nil {
		s.emitEnergy() // flush the final mode's residue
		s.tr.Emit(obs.Event{T: s.now, Kind: "run_end", Value: s.res.EnergyJ})
	}
	s.publishMetrics()
	if sc := s.cfg.Scratch; sc != nil {
		// Hand the buffers back for the next run on this scratch.
		sc.energy = s.energyComp
		sc.lastEnergy = s.lastEnergy
		sc.power = s.powerVec
	}
	return &s.res, nil
}

// publishMetrics materialises the run's headline numbers into the metrics
// registry: the quantities the paper's tables report (per-component energy,
// per-mode time and energy, QoS counters) plus operating-point residency.
// Called once at the end of Run; no-op without a registry.
func (s *Simulator) publishMetrics() {
	reg := s.cfg.Obs.Registry()
	if reg == nil {
		return
	}
	reg.Counter("sim.frames_decoded").Add(float64(s.res.FramesDecoded))
	reg.Counter("sim.frames_dropped").Add(float64(s.res.FramesDropped))
	reg.Counter("sim.reconfigurations").Add(float64(s.res.Reconfigurations))
	reg.Counter("sim.sleeps").Add(float64(s.res.Sleeps))
	reg.Counter("sim.deepens").Add(float64(s.res.Deepens))
	reg.Counter("sim.delay_over_target").Add(float64(s.res.DelayOverTarget))
	reg.Counter("sim.delay_over_2x_target").Add(float64(s.res.DelayOver2xTarget))
	reg.Gauge("sim.energy_total_j").Set(s.res.EnergyJ)
	reg.Gauge("sim.sim_time_s").Set(s.res.SimTime)
	reg.Gauge("sim.avg_power_w").Set(s.res.AvgPowerW)
	reg.Gauge("sim.mean_queue_len").Set(s.res.QueueLen.Mean())
	reg.Gauge("sim.peak_queue_len").Set(float64(s.res.PeakQueue))
	reg.Gauge("sim.mean_decode_mhz").Set(s.res.FreqTime.Mean())
	if s.cfg.Guard != nil {
		reg.Gauge("sim.guard_trips").Set(float64(s.res.GuardTrips))
		reg.Gauge("sim.guard_engaged_s").Set(s.res.GuardEngagedS)
	}
	for i, c := range s.badge {
		reg.Gauge("sim.energy_j." + c.Name).Set(s.energyComp[i])
	}
	for m := ModeDecode; m < numModes; m++ {
		reg.Gauge("sim.time_in_mode_s." + m.String()).Set(s.res.TimeInMode[m])
		reg.Gauge("sim.energy_by_mode_j." + m.String()).Set(s.res.EnergyByMode[m])
	}
	// Publish residency in ascending operating-point order so registration
	// order (and any future ordered consumer) is independent of map order.
	points := make([]float64, 0, len(s.opResidency))
	for mhz := range s.opResidency {
		points = append(points, mhz)
	}
	sort.Float64s(points)
	for _, mhz := range points {
		reg.Gauge(fmt.Sprintf("sim.op_residency_s.%gmhz", mhz)).Set(s.opResidency[mhz])
	}
}

// setSleepState updates the low-power state, invalidating the sleep-mode
// power vector when it actually changes.
func (s *Simulator) setSleepState(st device.PowerState) {
	if st != s.sleepState {
		s.sleepState = st
		s.powerOK[ModeSleep] = false
	}
}

// setCurKind updates the streaming application kind, invalidating the power
// vectors that depend on it (display activity in decode and awake-idle).
func (s *Simulator) setCurKind(k workload.Kind) {
	if k != s.curKind {
		s.curKind = k
		s.powerOK[ModeDecode] = false
		s.powerOK[ModeAwakeIdle] = false
	}
}

func (s *Simulator) handleArrival(f workload.TraceFrame) {
	// Feed the arrival estimator, unless this gap spans an idle period.
	if s.haveArrive {
		gap := f.Arrival - s.lastArrive
		spansIdle := s.mode == ModeSleep || s.mode == ModeWake ||
			(s.mode == ModeAwakeIdle && !s.decoding && s.buffer.Empty() && gap > idleResetGapS)
		if !spansIdle {
			s.cfg.Controller.OnArrival(gap, f.TrueArrivalRate)
		}
	}
	s.lastArrive = f.Arrival
	s.haveArrive = true
	if clips := s.cfg.Trace.Clips; len(clips) > 0 && f.ClipIndex < len(clips) {
		s.setCurKind(clips[f.ClipIndex].Kind)
	}
	// The radio's RX burst for this frame (see wlanRxS).
	if s.wlanIdx >= 0 {
		rxE := s.wlanRxE
		if len(s.derate) > 0 {
			rxE *= s.derateFactorAt(s.now)
		}
		s.energyComp[s.wlanIdx] += rxE
		s.res.EnergyJ += rxE
		s.res.EnergyByMode[s.mode] += rxE
	}

	if s.cfg.BufferCap > 0 && s.buffer.Len() >= s.cfg.BufferCap {
		// Frame buffer full: the frame is lost. The power manager still saw
		// the arrival (fed to the estimator above) and the radio still
		// received it; only the payload drops. The arrival still counts as
		// activity, so a sleeping device wakes below.
		s.res.FramesDropped++
		if s.tr != nil {
			s.tr.Emit(obs.Event{T: s.now, Kind: "drop", Frame: f.Seq + 1, Queue: s.buffer.Len()})
		}
	} else {
		s.buffer.Push(queue.Frame{Seq: f.Seq, ArrivalTime: f.Arrival, Work: f.Work, ClipID: f.ClipIndex})
		if s.tr != nil {
			s.tr.Emit(obs.Event{T: s.now, Kind: "arrival", Frame: f.Seq + 1, Queue: s.buffer.Len()})
		}
	}
	if s.cfg.Guard != nil {
		s.cfg.Guard.ObserveQueue(s.now, s.buffer.Len())
		s.cfg.Guard.ObserveDemand(s.now, s.cfg.Controller.DemandRatio())
	}

	switch s.mode {
	case ModeSleep:
		// Wake up: the DPM observes the completed idle period.
		s.cfg.DPM.ObserveIdle(s.now - s.idleSince)
		s.cancelTimers()
		wake := s.cfg.Badge.WakeLatency(s.sleepState)
		slept := s.sleepState
		s.setMode(ModeWake)
		if s.tr != nil {
			s.tr.Emit(obs.Event{T: s.now, Kind: "wake", Target: slept.String(), DelayS: wake})
		}
		s.schedule(evWakeDone, event{time: s.now + wake})
	case ModeAwakeIdle:
		if !s.decoding {
			s.cfg.DPM.ObserveIdle(s.now - s.idleSince)
			s.cancelTimers()
		}
		s.startDecodeIfPossible()
	case ModeWake, ModeDecode:
		// Buffer and keep going.
	}
}

func (s *Simulator) handleDecodeDone(f workload.TraceFrame) {
	done := s.buffer.Pop()
	if done.Seq != f.Seq {
		internalf("decode completion order mismatch: %d vs %d", done.Seq, f.Seq)
	}
	s.decoding = false
	s.res.FramesDecoded++
	delay := s.now - done.ArrivalTime
	s.res.FrameDelay.Add(delay)
	s.mDelay.Observe(delay)
	if s.tr != nil {
		s.tr.Emit(obs.Event{T: s.now, Kind: "decode_done", Frame: f.Seq + 1,
			Queue: s.buffer.Len(), DelayS: delay})
	}
	if target := s.cfg.Controller.TargetDelay; delay > target {
		s.res.DelayOverTarget++
		if delay > 2*target {
			s.res.DelayOver2xTarget++
		}
	}
	// Charge the frame's data-memory activity: the access time is the memory
	// fraction of the frame's full-speed decode time, independent of the
	// clock the frame actually decoded at. The coefficient (power delta ×
	// memory fraction) is precomputed per kind in New.
	memIdx, memCoef := s.sramIdx, s.sramCoef
	if s.curKind == workload.MPEG {
		memIdx, memCoef = s.dramIdx, s.dramCoef
	}
	if memIdx >= 0 {
		memE := memCoef * f.Work
		if len(s.derate) > 0 {
			memE *= s.derateFactorAt(s.now)
		}
		s.energyComp[memIdx] += memE
		s.res.EnergyJ += memE
		s.res.EnergyByMode[ModeDecode] += memE
	}
	// Feed the service estimator with the decode time normalised to the
	// maximum frequency (the PM knows the current point's performance ratio).
	s.cfg.Controller.OnService(f.Work, f.TrueDecodeRateMax)
	if s.cfg.Guard != nil {
		s.cfg.Guard.ObserveQueue(s.now, s.buffer.Len())
		s.cfg.Guard.ObserveDemand(s.now, s.cfg.Controller.DemandRatio())
	}
	if s.buffer.Empty() {
		s.enterIdle()
		return
	}
	s.setMode(ModeAwakeIdle)
	s.startDecodeIfPossible()
}

// Run is a convenience wrapper: build and execute in one call.
func Run(cfg Config) (*Result, error) {
	s, err := New(cfg)
	if err != nil {
		return nil, err
	}
	return s.Run()
}
