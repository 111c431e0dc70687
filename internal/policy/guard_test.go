package policy

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"smartbadge/internal/obs"
	"smartbadge/internal/perfmodel"
	"smartbadge/internal/sa1100"
)

func TestGuardConfigValidate(t *testing.T) {
	if err := DefaultGuardConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	cases := []struct {
		name string
		mod  func(*GuardConfig)
	}{
		{"zero QueueHigh", func(c *GuardConfig) { c.QueueHigh = 0 }},
		{"QueueLow above QueueHigh", func(c *GuardConfig) { c.QueueLow = c.QueueHigh }},
		{"negative QueueLow", func(c *GuardConfig) { c.QueueLow = -1 }},
		{"negative TripAfterS", func(c *GuardConfig) { c.TripAfterS = -1 }},
		{"negative RecoverAfterS", func(c *GuardConfig) { c.RecoverAfterS = -1 }},
	}
	for _, c := range cases {
		cfg := DefaultGuardConfig()
		c.mod(&cfg)
		if _, err := NewOverloadGuard(cfg); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

// testGuardConfig is a small hand-tuned config the trip/recover tests can
// reason about exactly.
func testGuardConfig() GuardConfig {
	return GuardConfig{QueueHigh: 10, QueueLow: 2, TripAfterS: 1, RecoverAfterS: 2, DivergeRatio: 1.5}
}

func TestOverloadGuardQueueTripAndRecover(t *testing.T) {
	g, err := NewOverloadGuard(testGuardConfig())
	if err != nil {
		t.Fatal(err)
	}
	tripped := -1.0
	g.OnTrip = func(nowS float64) { tripped = nowS }

	g.ObserveQueue(0, 15) // arms the overload trigger
	g.ObserveQueue(0.5, 15)
	if g.Engaged() {
		t.Fatal("tripped before TripAfterS elapsed")
	}
	g.ObserveQueue(1.0, 15) // sustained for TripAfterS
	if !g.Engaged() {
		t.Fatal("did not trip after sustained overload")
	}
	if tripped != 1.0 {
		t.Errorf("OnTrip at %v, want 1.0", tripped)
	}

	// Recovery: below QueueLow, sustained for RecoverAfterS.
	g.ObserveQueue(5.0, 1)
	g.ObserveQueue(6.0, 1)
	if !g.Engaged() {
		t.Fatal("released before RecoverAfterS elapsed")
	}
	g.ObserveQueue(7.0, 1)
	if g.Engaged() {
		t.Fatal("did not release after sustained recovery")
	}

	st := g.Stats(10)
	if st.Trips != 1 || st.Engaged {
		t.Errorf("stats = %+v, want 1 completed trip", st)
	}
	if st.EngagedS != 6 || st.LastRecoveryS != 6 { // tripped at 1, released at 7
		t.Errorf("EngagedS = %v, LastRecoveryS = %v, want 6", st.EngagedS, st.LastRecoveryS)
	}
}

func TestOverloadGuardTransientDoesNotTrip(t *testing.T) {
	g, err := NewOverloadGuard(testGuardConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Bursts shorter than TripAfterS, separated by dips: never trips.
	for _, base := range []float64{0, 10, 20} {
		g.ObserveQueue(base, 15)
		g.ObserveQueue(base+0.9, 15)
		g.ObserveQueue(base+0.95, 3) // dip resets the onset clock
	}
	if g.Engaged() {
		t.Error("transient bursts tripped the guard")
	}
	if st := g.Stats(30); st.Trips != 0 {
		t.Errorf("trips = %d, want 0", st.Trips)
	}
}

func TestOverloadGuardRecoveryHysteresis(t *testing.T) {
	g, err := NewOverloadGuard(testGuardConfig())
	if err != nil {
		t.Fatal(err)
	}
	g.ObserveQueue(0, 15)
	g.ObserveQueue(1, 15)
	if !g.Engaged() {
		t.Fatal("setup: guard did not trip")
	}
	// Queue dips below QueueLow but pops back up before RecoverAfterS: the
	// release clock must reset.
	g.ObserveQueue(2.0, 1)
	g.ObserveQueue(3.0, 8) // above QueueLow — resets
	g.ObserveQueue(4.5, 1)
	g.ObserveQueue(5.5, 1) // only 1 s below — not enough
	if !g.Engaged() {
		t.Error("released without a sustained recovery window")
	}
	g.ObserveQueue(6.5, 1) // 2 s since 4.5
	if g.Engaged() {
		t.Error("did not release after the full recovery window")
	}
}

func TestOverloadGuardDivergenceTrip(t *testing.T) {
	g, err := NewOverloadGuard(testGuardConfig())
	if err != nil {
		t.Fatal(err)
	}
	g.ObserveDemand(0, 2.0)
	g.ObserveDemand(0.5, 2.0)
	if g.Engaged() {
		t.Fatal("tripped before TripAfterS of divergence")
	}
	g.ObserveDemand(1.0, 2.0)
	if !g.Engaged() {
		t.Fatal("sustained divergence did not trip")
	}

	// Disabled trigger: DivergeRatio <= 0 never trips on demand.
	cfg := testGuardConfig()
	cfg.DivergeRatio = 0
	g2, err := NewOverloadGuard(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for tm := 0.0; tm < 10; tm++ {
		g2.ObserveDemand(tm, 100)
	}
	if g2.Engaged() {
		t.Error("disabled divergence trigger tripped")
	}

	// A dip below the ratio resets the onset clock.
	g3, err := NewOverloadGuard(testGuardConfig())
	if err != nil {
		t.Fatal(err)
	}
	g3.ObserveDemand(0, 2.0)
	g3.ObserveDemand(0.9, 1.0) // back under — resets
	g3.ObserveDemand(1.5, 2.0)
	g3.ObserveDemand(2.0, 2.0)
	if g3.Engaged() {
		t.Error("tripped despite the divergence dipping away")
	}
}

func TestOverloadGuardNilReceiver(t *testing.T) {
	var g *OverloadGuard
	g.ObserveQueue(0, 1000)
	g.ObserveDemand(0, 1000)
	g.Instrument(obs.New(obs.NewRegistry(), nil))
	if g.Engaged() {
		t.Error("nil guard engaged")
	}
	if st := g.Stats(10); st != (GuardStats{}) {
		t.Errorf("nil guard stats = %+v", st)
	}
}

func TestOverloadGuardObservability(t *testing.T) {
	var buf bytes.Buffer
	o := obs.New(obs.NewRegistry(), obs.NewTracer(&buf))
	g, err := NewOverloadGuard(testGuardConfig())
	if err != nil {
		t.Fatal(err)
	}
	g.Instrument(o)
	g.ObserveQueue(0, 15)
	g.ObserveQueue(1, 15)
	g.ObserveQueue(2, 0)
	g.ObserveQueue(4, 0)
	if err := o.Tracer().Flush(); err != nil {
		t.Fatal(err)
	}
	if v := o.Registry().Counter("policy.guard_trips").Value(); v != 1 {
		t.Errorf("trip counter = %v", v)
	}
	if v := o.Registry().Counter("policy.guard_clears").Value(); v != 1 {
		t.Errorf("clear counter = %v", v)
	}
	out := buf.String()
	if !strings.Contains(out, `"kind":"guard_trip"`) || !strings.Contains(out, `"kind":"guard_clear"`) {
		t.Errorf("trace missing guard events:\n%s", out)
	}
}

func TestRateClamp(t *testing.T) {
	var zero RateClamp
	for _, x := range []float64{-5, 0, 1e-9, 42, 1e12} {
		if zero.Clamp(x) != x {
			t.Errorf("zero clamp changed %v", x)
		}
	}
	c := RateClamp{Lo: 10, Hi: 100}
	cases := []struct{ in, want float64 }{
		{5, 10}, {10, 10}, {50, 50}, {100, 100}, {500, 100}, {-1, 10},
	}
	for _, tc := range cases {
		if got := c.Clamp(tc.in); got != tc.want {
			t.Errorf("Clamp(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
	lowOnly := RateClamp{Lo: 10}
	if lowOnly.Clamp(1e12) != 1e12 {
		t.Error("inactive Hi bound clamped")
	}
}

func TestDemandRatio(t *testing.T) {
	c, err := NewController(sa1100.Default(), perfmodel.MPEGCurve(), 0.1,
		NewIdeal(20), NewIdeal(44), false)
	if err != nil {
		t.Fatal(err)
	}
	// Nominal load: λU=20, λD=20+1/0.1=30 against λD_max=44 → ratio < 1.
	if r := c.DemandRatio(); r <= 0 || r >= 1 {
		t.Errorf("nominal demand ratio = %v, want in (0, 1)", r)
	}
	// Divergence: the arrival estimate explodes; RequiredFrequencyMHz
	// saturates at the ladder top but DemandRatio keeps growing.
	c.ArrivalEst.Reset(440)
	if r := c.DemandRatio(); r <= 1 {
		t.Errorf("diverged demand ratio = %v, want > 1", r)
	}
	if f := c.RequiredFrequencyMHz(); f != c.Proc.Max().FrequencyMHz {
		t.Errorf("required frequency = %v, want saturation at %v", f, c.Proc.Max().FrequencyMHz)
	}
	// Clamps pull the wild estimate back into the plausible band.
	c.ArrivalClamp = RateClamp{Hi: 30}
	if r := c.DemandRatio(); r >= 1 {
		t.Errorf("clamped demand ratio = %v, want < 1", r)
	}
	// Degenerate service estimate reports +Inf.
	c.ServiceEst.Reset(0)
	c.ServiceClamp = RateClamp{}
	if r := c.DemandRatio(); !math.IsInf(r, 1) {
		t.Errorf("zero service rate demand ratio = %v, want +Inf", r)
	}
}
