package smartbadge

import (
	"math"
	"strings"
	"testing"

	"smartbadge/internal/workload"
)

func TestOptionsValidate(t *testing.T) {
	good, err := MP3Trace(1, "A")
	if err != nil {
		t.Fatal(err)
	}
	badSeq, _ := MP3Trace(1, "A")
	badSeq = &Trace{Frames: append([]workload.TraceFrame(nil), badSeq.Frames...), Changes: badSeq.Changes}
	badSeq.Frames[1].Seq = 99

	backwards, _ := MP3Trace(1, "A")
	backwards = &Trace{Frames: append([]workload.TraceFrame(nil), backwards.Frames...), Changes: backwards.Changes}
	backwards.Frames[2].Arrival = backwards.Frames[1].Arrival / 2

	nanWork, _ := MP3Trace(1, "A")
	nanWork = &Trace{Frames: append([]workload.TraceFrame(nil), nanWork.Frames...), Changes: nanWork.Changes}
	nanWork.Frames[0].Work = math.NaN()

	badClip, _ := MP3Trace(1, "AB")
	badClip.Frames[10].ClipIndex = -1

	cases := []struct {
		name string
		opts Options
		ok   bool
		want string // substring of the expected error
	}{
		{"zero values with trace", Options{Trace: good}, true, ""},
		{"all fields set", Options{Trace: good, Application: AppMP3, Policy: PolicyIdeal,
			DPM: DPMTimeout, TimeoutS: 0.5, BufferCap: 64, Faults: "outage"}, true, ""},
		{"nil trace", Options{}, false, "Trace is required"},
		{"no frames", Options{Trace: &Trace{Changes: good.Changes}}, false, "no frames"},
		{"no rate changes", Options{Trace: &Trace{Frames: good.Frames}}, false, "rate-change"},
		{"shuffled Seq", Options{Trace: badSeq}, false, "Seq"},
		{"arrivals go backwards", Options{Trace: backwards}, false, "before frame"},
		{"NaN work", Options{Trace: nanWork}, false, "decode work"},
		{"negative clip index", Options{Trace: badClip}, false, "clip index"},
		{"bogus application", Options{Trace: good, Application: "walkman"}, false, "unknown application"},
		{"bogus policy", Options{Trace: good, Policy: "vibes"}, false, "unknown policy"},
		{"bogus dpm", Options{Trace: good, DPM: "nap"}, false, "unknown DPM"},
		{"negative timeout", Options{Trace: good, TimeoutS: -1}, false, "TimeoutS"},
		{"negative buffer cap", Options{Trace: good, BufferCap: -1}, false, "BufferCap"},
		{"bogus fault scenario", Options{Trace: good, Faults: "locusts"}, false, "unknown fault scenario"},
		{"explicit none scenario", Options{Trace: good, Faults: "none"}, true, ""},
	}
	for _, c := range cases {
		err := c.opts.Validate()
		if c.ok {
			if err != nil {
				t.Errorf("%s: unexpected error %v", c.name, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("%s: validation passed, want error containing %q", c.name, c.want)
		} else if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
	// Run must reject what Validate rejects, before doing any work: the
	// simulator's arrival handler indexes the clip list with ClipIndex, so a
	// negative one must never reach it.
	for _, tr := range []*Trace{badSeq, badClip} {
		want := Options{Trace: tr}.Validate()
		if _, err := Run(Options{Trace: tr}); err == nil || want == nil || err.Error() != want.Error() {
			t.Errorf("Run returned %v, want Validate's error %v", err, want)
		}
	}
}

// TestFaultFreeRunByteIdentical is the regression guarding the golden path:
// with no scenario (or the explicit "none"), results — down to the formatted
// report — are byte-identical to a build that never heard of fault injection.
func TestFaultFreeRunByteIdentical(t *testing.T) {
	tr, err := MP3Trace(21, "ACE")
	if err != nil {
		t.Fatal(err)
	}
	base, err := Run(Options{Trace: tr, Policy: PolicyChangePoint, DPM: DPMRenewal})
	if err != nil {
		t.Fatal(err)
	}
	var report FaultReport
	for _, name := range []string{"", "none"} {
		res, err := Run(Options{Trace: tr, Policy: PolicyChangePoint, DPM: DPMRenewal,
			Faults: name, FaultSeed: 7, FaultReport: &report})
		if err != nil {
			t.Fatal(err)
		}
		if res.EnergyJ != base.EnergyJ || res.FramesDecoded != base.FramesDecoded ||
			res.Sleeps != base.Sleeps || res.Reconfigurations != base.Reconfigurations {
			t.Errorf("Faults=%q drifted from the fault-free baseline", name)
		}
		if FormatResult(res) != FormatResult(base) {
			t.Errorf("Faults=%q report not byte-identical to the baseline", name)
		}
	}
	if report.Scenario != "" {
		t.Errorf("fault-free run wrote a fault report: %+v", report)
	}
	if base.GuardTrips != 0 || base.GuardEngagedS != 0 {
		t.Error("fault-free run reported watchdog activity")
	}
}

func TestRunWithFaultScenario(t *testing.T) {
	tr, err := CombinedTrace(3)
	if err != nil {
		t.Fatal(err)
	}
	base, err := Run(Options{Application: AppMixed, Trace: tr, DPM: DPMRenewal})
	if err != nil {
		t.Fatal(err)
	}
	var report FaultReport
	res, err := Run(Options{Application: AppMixed, Trace: tr, DPM: DPMRenewal,
		Faults: "outage", FaultSeed: 3, FaultReport: &report})
	if err != nil {
		t.Fatal(err)
	}
	if report.Scenario != "outage" || report.Delayed == 0 || report.OutageS == 0 {
		t.Errorf("fault report not populated: %+v", report)
	}
	if res.EnergyJ == base.EnergyJ && res.FrameDelay.Mean() == base.FrameDelay.Mean() {
		t.Error("outage scenario changed nothing")
	}
	// The input trace must be untouched: a faulted run then a fault-free run
	// on the same trace still matches the baseline.
	again, err := Run(Options{Application: AppMixed, Trace: tr, DPM: DPMRenewal})
	if err != nil {
		t.Fatal(err)
	}
	if again.EnergyJ != base.EnergyJ {
		t.Error("fault injection mutated the caller's trace")
	}

	// Determinism: the same fault seed reproduces the run bit for bit.
	res2, err := Run(Options{Application: AppMixed, Trace: tr, DPM: DPMRenewal,
		Faults: "outage", FaultSeed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res2.EnergyJ != res.EnergyJ || res2.FramesDecoded != res.FramesDecoded {
		t.Error("identical fault seeds diverged")
	}

	// DisableGuardrails still completes (the "bare" comparison).
	bare, err := Run(Options{Application: AppMixed, Trace: tr, DPM: DPMRenewal,
		Faults: "outage", FaultSeed: 3, DisableGuardrails: true})
	if err != nil {
		t.Fatal(err)
	}
	if bare.GuardTrips != 0 {
		t.Error("guardrails disabled but the watchdog tripped")
	}
}

func TestEveryFaultScenarioRuns(t *testing.T) {
	tr, err := MP3Trace(5, "AB")
	if err != nil {
		t.Fatal(err)
	}
	names := FaultScenarios()
	if len(names) < 2 || names[0] != "none" {
		t.Fatalf("FaultScenarios() = %v", names)
	}
	for _, name := range names {
		res, err := Run(Options{Trace: tr, Faults: name, FaultSeed: 2})
		if err != nil {
			t.Errorf("scenario %q: %v", name, err)
			continue
		}
		if res.FramesDecoded == 0 {
			t.Errorf("scenario %q decoded nothing", name)
		}
	}
}
