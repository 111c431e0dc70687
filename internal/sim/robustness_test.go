package sim

import (
	"errors"
	"math"
	"strings"
	"testing"

	"smartbadge/internal/device"
	"smartbadge/internal/dpm"
	"smartbadge/internal/perfmodel"
	"smartbadge/internal/policy"
	"smartbadge/internal/sa1100"
	"smartbadge/internal/workload"
)

func TestDerateScalesEnergyExactly(t *testing.T) {
	// A derate window covering the whole run scales every draw — continuous
	// dot-product charging and per-event lumps alike — so total energy must be
	// exactly Factor times the baseline.
	base := runMP3(t, 11, false, nil)
	tr := mp3Trace(t, 11, "ACEFBD")
	cfg := Config{
		Badge:      device.SmartBadge(),
		Proc:       sa1100.Default(),
		Trace:      tr,
		Controller: idealController(t, perfmodel.MP3Curve(), 0.15, false),
		Kind:       workload.MP3,
		Derate:     []PowerDerate{{StartS: 0, EndS: tr.Duration * 10, Factor: 1.35}},
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rel := res.EnergyJ / base.EnergyJ; math.Abs(rel-1.35) > 1e-9 {
		t.Errorf("derated energy ratio = %v, want exactly 1.35", rel)
	}
	// Timing is power-independent: the decode schedule must be untouched.
	if res.FramesDecoded != base.FramesDecoded || res.FrameDelay.Mean() != base.FrameDelay.Mean() {
		t.Error("derating changed the schedule, not just the energy")
	}
}

func TestDeratePartialWindow(t *testing.T) {
	base := runMP3(t, 12, false, nil)
	tr := mp3Trace(t, 12, "ACEFBD")
	cfg := Config{
		Badge:      device.SmartBadge(),
		Proc:       sa1100.Default(),
		Trace:      tr,
		Controller: idealController(t, perfmodel.MP3Curve(), 0.15, false),
		Kind:       workload.MP3,
		Derate: []PowerDerate{
			{StartS: tr.Duration * 0.2, EndS: tr.Duration * 0.3, Factor: 1.5},
			{StartS: tr.Duration * 0.6, EndS: tr.Duration * 0.7, Factor: 1.2},
		},
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.EnergyJ <= base.EnergyJ {
		t.Errorf("derated energy %v not above baseline %v", res.EnergyJ, base.EnergyJ)
	}
	// Only ~10% of the run is derated at each factor: the total cannot exceed
	// the whole-run worst case.
	if res.EnergyJ >= base.EnergyJ*1.5 {
		t.Errorf("derated energy %v implausibly high vs baseline %v", res.EnergyJ, base.EnergyJ)
	}
}

func TestDerateValidation(t *testing.T) {
	tr := mp3Trace(t, 1, "A")
	mk := func(windows []PowerDerate) Config {
		return Config{
			Badge:      device.SmartBadge(),
			Proc:       sa1100.Default(),
			Trace:      tr,
			Controller: idealController(t, perfmodel.MP3Curve(), 0.15, false),
			Kind:       workload.MP3,
			Derate:     windows,
		}
	}
	bad := [][]PowerDerate{
		{{StartS: -1, EndS: 5, Factor: 1.2}},
		{{StartS: 5, EndS: 5, Factor: 1.2}},
		{{StartS: 0, EndS: 5, Factor: 0}},
		{{StartS: 0, EndS: 5, Factor: -2}},
		{{StartS: 0, EndS: 5, Factor: 1.2}, {StartS: 4, EndS: 8, Factor: 1.3}},
	}
	for i, w := range bad {
		if _, err := New(mk(w)); err == nil {
			t.Errorf("case %d: invalid derate windows %v accepted", i, w)
		}
	}
	// Out-of-order but disjoint windows are fine (New sorts a copy).
	ok := []PowerDerate{{StartS: 10, EndS: 12, Factor: 1.2}, {StartS: 0, EndS: 5, Factor: 1.3}}
	if _, err := New(mk(ok)); err != nil {
		t.Errorf("disjoint unsorted windows rejected: %v", err)
	}
}

func TestInternalErrorRecoveredFromRun(t *testing.T) {
	// A trace with decreasing arrivals (workload.Trace.Validate would reject
	// it, but sim.New cannot afford a full scan on every construction) drives
	// the event clock backwards mid-run: the typed internal panic must come
	// back as a wrapped error, not crash the process.
	tr := &workload.Trace{
		Frames: []workload.TraceFrame{
			{Seq: 0, Arrival: 5, Work: 0.001, TrueArrivalRate: 10, TrueDecodeRateMax: 40},
			{Seq: 1, Arrival: 1, Work: 0.001, TrueArrivalRate: 10, TrueDecodeRateMax: 40},
		},
		Changes:  []workload.RateChange{{ArrivalRate: 10, DecodeRateMax: 40}},
		Duration: 5,
	}
	res, err := Run(Config{
		Badge:      device.SmartBadge(),
		Proc:       sa1100.Default(),
		Trace:      tr,
		Controller: idealController(t, perfmodel.MP3Curve(), 0.15, false),
		Kind:       workload.MP3,
	})
	if err == nil {
		t.Fatalf("corrupted simulator returned %+v without error", res)
	}
	var ie *InternalError
	if !errors.As(err, &ie) {
		t.Fatalf("error %v does not wrap *InternalError", err)
	}
	if !strings.Contains(ie.Reason, "time went backwards") {
		t.Errorf("reason %q lost the panic text", ie.Reason)
	}
	if !strings.Contains(err.Error(), "run aborted at t=") {
		t.Errorf("error %q missing the abort context", err)
	}
}

// TestMisfiredTimerIsInternalError: a deepen timer may only fire while the
// badge sleeps. One planted before Run fires in the awake idle of t=0 and
// must abort the run with an *InternalError instead of deepening an awake
// badge.
func TestMisfiredTimerIsInternalError(t *testing.T) {
	s, err := New(Config{
		Badge:      device.SmartBadge(),
		Proc:       sa1100.Default(),
		Trace:      mp3Trace(t, 12, "A"),
		Controller: idealController(t, perfmodel.MP3Curve(), 0.15, false),
		Kind:       workload.MP3,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.schedule(evDeepenTimer, event{time: 0, target: device.Off})
	var ie *InternalError
	if _, err := s.Run(); !errors.As(err, &ie) || !strings.Contains(ie.Reason, "deepen timer fired in idle mode") {
		t.Fatalf("Run returned %v, want an *InternalError for the misfired deepen timer", err)
	}
}

// panicPolicy is a DPM policy that panics on its first decision — a stand-in
// for a foreign bug that must NOT be converted into a sim.InternalError.
type panicPolicy struct{}

func (panicPolicy) Decide(float64) Decision       { panic("boom: not an internal error") }
func (panicPolicy) ObserveIdle(durationS float64) {}
func (panicPolicy) Name() string                  { return "panicky" }

// Decision aliases keep panicPolicy implementing dpm.Policy without an import
// cycle gymnastics in the test.
type Decision = dpm.Decision

func TestForeignPanicNotSwallowed(t *testing.T) {
	tr := mp3Trace(t, 1, "AB")
	cfg := Config{
		Badge:      device.SmartBadge(),
		Proc:       sa1100.Default(),
		Trace:      tr,
		Controller: idealController(t, perfmodel.MP3Curve(), 0.15, false),
		DPM:        panicPolicy{},
		Kind:       workload.MP3,
	}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("foreign panic was swallowed")
		}
		if s, ok := r.(string); !ok || !strings.Contains(s, "boom") {
			t.Fatalf("unexpected panic value %v", r)
		}
	}()
	_, _ = Run(cfg)
}

// burstTrace hand-builds an overload scenario: a calm lead-in, then a burst
// arriving far faster than any operating point can serve, then a calm tail
// long enough for the watchdog to observe recovery.
func burstTrace(calmRate, burstWork float64, burst, tail int) *workload.Trace {
	tr := &workload.Trace{Kind: workload.MP3}
	now := 0.0
	add := func(gap, work float64, n int) {
		for i := 0; i < n; i++ {
			now += gap
			tr.Frames = append(tr.Frames, workload.TraceFrame{
				Seq:               len(tr.Frames),
				Arrival:           now,
				Work:              work,
				TrueArrivalRate:   calmRate,
				TrueDecodeRateMax: 40,
			})
		}
	}
	tr.Changes = []workload.RateChange{{ArrivalRate: calmRate, DecodeRateMax: 40}}
	add(1/calmRate, 1.0/40, 50) // calm lead-in
	add(1e-4, burstWork, burst) // the burst: arrivals effectively simultaneous
	add(1/calmRate, 1.0/40, tail)
	tr.Duration = now
	return tr
}

func TestOverloadGuardTripsAndRecoversEndToEnd(t *testing.T) {
	tr := burstTrace(5, 1.0/40, 200, 300)
	guard := policy.NewOverloadGuard()
	cfg := Config{
		Badge:      device.SmartBadge(),
		Proc:       sa1100.Default(),
		Trace:      tr,
		Controller: idealController(t, perfmodel.MP3Curve(), 0.15, false),
		Kind:       workload.MP3,
		Guard:      guard,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.GuardTrips < 1 {
		t.Fatalf("watchdog never tripped under a 200-frame burst (peak queue %d)", res.PeakQueue)
	}
	if res.GuardEngagedS <= 0 {
		t.Error("trips recorded but no engaged time")
	}
	if guard.Engaged() {
		t.Error("run ended with the watchdog still engaged: no recovery")
	}
	st := guard.Stats(res.SimTime)
	if st.LastRecoveryS <= 0 || math.IsInf(st.LastRecoveryS, 0) {
		t.Errorf("recovery time %v not finite positive", st.LastRecoveryS)
	}
	if res.FramesDecoded != len(tr.Frames) {
		t.Errorf("decoded %d of %d frames", res.FramesDecoded, len(tr.Frames))
	}

	// The same burst without the watchdog: the run must still complete, and
	// the guarded run must not decode fewer frames.
	cfgBare := cfg
	cfgBare.Guard = nil
	cfgBare.Controller = idealController(t, perfmodel.MP3Curve(), 0.15, false)
	bare, err := Run(cfgBare)
	if err != nil {
		t.Fatal(err)
	}
	if bare.GuardTrips != 0 || bare.GuardEngagedS != 0 {
		t.Errorf("unguarded run reported guard activity: %d trips, %v s", bare.GuardTrips, bare.GuardEngagedS)
	}
}
