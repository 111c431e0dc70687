package dpm

import (
	"bytes"
	"strings"
	"testing"

	"smartbadge/internal/device"
	"smartbadge/internal/obs"
)

// sleepyPolicy always wants to sleep — the foil the guard's veto is tested
// against.
type sleepyPolicy struct{ observed int }

func (p *sleepyPolicy) Decide(float64) Decision {
	return Decision{Sleep: true, Target: device.Standby}
}
func (p *sleepyPolicy) ObserveIdle(float64) { p.observed++ }
func (p *sleepyPolicy) Name() string        { return "sleepy" }

func TestNewGuardValidation(t *testing.T) {
	if _, err := NewGuard(nil, 50, 10); err == nil {
		t.Error("nil inner policy accepted")
	}
	if _, err := NewGuard(AlwaysOn{}, 1, 10); err == nil {
		t.Error("spike factor of 1 accepted")
	}
	if _, err := NewGuard(AlwaysOn{}, 50, 0); err == nil {
		t.Error("zero hold count accepted")
	}
	if _, err := NewGuard(AlwaysOn{}, 50, 10); err != nil {
		t.Errorf("valid guard rejected: %v", err)
	}
}

func TestGuardVetoHold(t *testing.T) {
	inner := &sleepyPolicy{}
	g, err := NewGuard(inner, 50, 3)
	if err != nil {
		t.Fatal(err)
	}
	if d := g.Decide(1); !d.Sleep {
		t.Fatal("guard without suspicion overrode the inner policy")
	}
	g.NoteSuspicion()
	for i := 0; i < 3; i++ {
		if d := g.Decide(1); d.Sleep {
			t.Fatalf("decision %d after suspicion allowed sleep", i)
		}
	}
	if d := g.Decide(1); !d.Sleep {
		t.Error("hold did not expire after holdCount decisions")
	}
	if g.Vetoes() != 3 || g.Suspicions() != 1 {
		t.Errorf("vetoes = %d, suspicions = %d, want 3 and 1", g.Vetoes(), g.Suspicions())
	}
	if g.Name() != "guarded(sleepy)" {
		t.Errorf("name = %q", g.Name())
	}
}

func TestGuardSpikeDetector(t *testing.T) {
	inner := &sleepyPolicy{}
	g, err := NewGuard(inner, 50, 5)
	if err != nil {
		t.Fatal(err)
	}
	// Below the sample floor the detector must stay quiet even for a huge
	// outlier (early noise).
	g.ObserveIdle(1000)
	for i := 0; i < minGuardSamples; i++ {
		g.ObserveIdle(0.05)
	}
	if g.Suspicions() != 0 {
		t.Fatal("spike detector fired before the sample floor")
	}
	// Now an outage-sized idle period: tens of times the running mean.
	// (The early 1000 s outlier inflated the mean to ~59 s; 50x that.)
	g.ObserveIdle(3500)
	if g.Suspicions() != 1 {
		t.Errorf("suspicions = %d after an idle spike, want 1", g.Suspicions())
	}
	if d := g.Decide(1); d.Sleep {
		t.Error("sleep allowed right after an idle spike")
	}
	if inner.observed != minGuardSamples+2 {
		t.Errorf("inner saw %d observations, want %d (all forwarded)", inner.observed, minGuardSamples+2)
	}
}

func TestGuardNormalIdleDoesNotTrip(t *testing.T) {
	g, err := NewGuard(&sleepyPolicy{}, 50, 5)
	if err != nil {
		t.Fatal(err)
	}
	// A well-behaved near-constant idle stream never looks suspect.
	for i := 0; i < 1000; i++ {
		g.ObserveIdle(0.04 + 0.02*float64(i%3))
	}
	if g.Suspicions() != 0 {
		t.Errorf("suspicions = %d on a stationary stream", g.Suspicions())
	}
}

func TestGuardNilReceiver(t *testing.T) {
	var g *Guard
	g.NoteSuspicion()
	g.Instrument(obs.New(obs.NewRegistry(), nil))
	if g.Vetoes() != 0 || g.Suspicions() != 0 {
		t.Error("nil guard reported activity")
	}
}

func TestGuardObservability(t *testing.T) {
	var buf bytes.Buffer
	o := obs.New(obs.NewRegistry(), obs.NewTracer(&buf))
	g, err := NewGuard(&sleepyPolicy{}, 50, 2)
	if err != nil {
		t.Fatal(err)
	}
	g.Instrument(o)
	g.NoteSuspicion()
	g.Decide(1)
	g.Decide(1)
	if err := o.Tracer().Flush(); err != nil {
		t.Fatal(err)
	}
	if v := o.Registry().Counter("dpm.guard_vetoes").Value(); v != 2 {
		t.Errorf("veto counter = %v", v)
	}
	if v := o.Registry().Counter("dpm.guard_suspicions").Value(); v != 1 {
		t.Errorf("suspicion counter = %v", v)
	}
	out := buf.String()
	if !strings.Contains(out, `"kind":"dpm_suspect"`) || !strings.Contains(out, `"kind":"dpm_veto"`) {
		t.Errorf("trace missing guard events:\n%s", out)
	}
}
