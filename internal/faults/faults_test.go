package faults

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"smartbadge/internal/obs"
	"smartbadge/internal/stats"
	"smartbadge/internal/workload"
)

// uniformTrace builds a hand-made trace with one frame every gapS seconds,
// starting at gapS — regular enough that window membership is easy to reason
// about in the tests below.
func uniformTrace(n int, gapS float64) *workload.Trace {
	frames := make([]workload.TraceFrame, n)
	for i := range frames {
		frames[i] = workload.TraceFrame{
			Seq:               i,
			Arrival:           float64(i+1) * gapS,
			Work:              0.01,
			TrueArrivalRate:   1 / gapS,
			TrueDecodeRateMax: 100,
		}
	}
	return &workload.Trace{
		Frames:   frames,
		Changes:  []workload.RateChange{{ArrivalRate: 1 / gapS, DecodeRateMax: 100}},
		Duration: frames[n-1].Arrival,
	}
}

func TestPrimitiveValidate(t *testing.T) {
	cases := []struct {
		name string
		sc   Scenario
		ok   bool
	}{
		{"empty", Scenario{Name: "none"}, true},
		{"good outage", Scenario{Outages: []Outage{{StartS: 1, DurationS: 5, CatchupRate: 100}}}, true},
		{"negative outage start", Scenario{Outages: []Outage{{StartS: -1, DurationS: 5, CatchupRate: 100}}}, false},
		{"zero outage duration", Scenario{Outages: []Outage{{StartS: 1, DurationS: 0, CatchupRate: 100}}}, false},
		{"zero catch-up rate", Scenario{Outages: []Outage{{StartS: 1, DurationS: 5}}}, false},
		{"good storm", Scenario{Storms: []Storm{{StartS: 1, DurationS: 5, Compress: 4}}}, true},
		{"storm compress below one", Scenario{Storms: []Storm{{StartS: 1, DurationS: 5, Compress: 1}}}, false},
		{"good corruption", Scenario{Corruptions: []Corruption{{StartS: 0, DurationS: 5, DropProb: 0.1, RedecodeProb: 0.2, RedecodeCost: 2}}}, true},
		{"corruption probs above one", Scenario{Corruptions: []Corruption{{StartS: 0, DurationS: 5, DropProb: 0.7, RedecodeProb: 0.7, RedecodeCost: 2}}}, false},
		{"corruption does nothing", Scenario{Corruptions: []Corruption{{StartS: 0, DurationS: 5}}}, false},
		{"redecode cost below one", Scenario{Corruptions: []Corruption{{StartS: 0, DurationS: 5, RedecodeProb: 0.2, RedecodeCost: 0.5}}}, false},
		{"good stragglers", Scenario{Stragglers: []Stragglers{{StartS: 0, DurationS: 5, Prob: 0.5, Shape: 1.5}}}, true},
		{"straggler prob above one", Scenario{Stragglers: []Stragglers{{StartS: 0, DurationS: 5, Prob: 1.5, Shape: 1.5}}}, false},
		{"straggler zero shape", Scenario{Stragglers: []Stragglers{{StartS: 0, DurationS: 5, Prob: 0.5}}}, false},
		{"good sag", Scenario{Sags: []Sag{{StartS: 0, DurationS: 5, Factor: 1.3}}}, true},
		{"sag factor below one", Scenario{Sags: []Sag{{StartS: 0, DurationS: 5, Factor: 0.9}}}, false},
		{"overlapping shifts", Scenario{
			Outages: []Outage{{StartS: 10, DurationS: 20, CatchupRate: 100}},
			Storms:  []Storm{{StartS: 25, DurationS: 10, Compress: 4}},
		}, false},
		{"disjoint shifts", Scenario{
			Outages: []Outage{{StartS: 10, DurationS: 20, CatchupRate: 100}},
			Storms:  []Storm{{StartS: 30, DurationS: 10, Compress: 4}},
		}, true},
	}
	for _, c := range cases {
		err := c.sc.Validate()
		if c.ok && err != nil {
			t.Errorf("%s: unexpected error %v", c.name, err)
		}
		if !c.ok && err == nil {
			t.Errorf("%s: validation passed, want error", c.name)
		}
	}
}

func TestApplyEmptyScenarioIsIdentity(t *testing.T) {
	tr := uniformTrace(50, 1)
	inj, err := Apply(stats.NewRNG(1), tr, Scenario{Name: "none"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(inj.Trace.Frames) != len(tr.Frames) {
		t.Fatalf("frames = %d, want %d", len(inj.Trace.Frames), len(tr.Frames))
	}
	for i, f := range inj.Trace.Frames {
		if f != tr.Frames[i] {
			t.Fatalf("frame %d changed: %+v vs %+v", i, f, tr.Frames[i])
		}
	}
	if inj.Derate != nil {
		t.Errorf("empty scenario produced derate windows: %v", inj.Derate)
	}
	r := inj.Report
	if r.Delayed+r.Dropped+r.Redecoded+r.Straggled != 0 || r.OutageS != 0 {
		t.Errorf("empty scenario reported injections: %+v", r)
	}
}

func TestApplyDoesNotMutateInput(t *testing.T) {
	tr := uniformTrace(100, 1)
	before := make([]workload.TraceFrame, len(tr.Frames))
	copy(before, tr.Frames)
	sc := Scenario{
		Name:        "mix",
		Outages:     []Outage{{StartS: 20, DurationS: 10, CatchupRate: 50}},
		Corruptions: []Corruption{{StartS: 0, DurationS: 100, DropProb: 0.2, RedecodeProb: 0.3, RedecodeCost: 2}},
		Stragglers:  []Stragglers{{StartS: 0, DurationS: 100, Prob: 0.5, Shape: 1.5}},
		Sags:        []Sag{{StartS: 10, DurationS: 5, Factor: 1.5}},
	}
	if _, err := Apply(stats.NewRNG(7), tr, sc, nil); err != nil {
		t.Fatal(err)
	}
	for i, f := range tr.Frames {
		if f != before[i] {
			t.Fatalf("Apply mutated input frame %d: %+v vs %+v", i, f, before[i])
		}
	}
}

func TestApplyOutage(t *testing.T) {
	// Frames at 1, 2, ..., 100 s; outage [30, 50) with a 10 fr/s catch-up.
	tr := uniformTrace(100, 1)
	sc := Scenario{Name: "outage", Outages: []Outage{{StartS: 30, DurationS: 20, CatchupRate: 10}}}
	inj, err := Apply(stats.NewRNG(1), tr, sc, nil)
	if err != nil {
		t.Fatal(err)
	}
	frames := inj.Trace.Frames
	// Frames originally at 30..49 are held (20 frames) and drain from t=50 at
	// 0.1 s spacing; frames at 50, 51, 52 arrive while the backlog is still
	// draining and queue behind it; the frame at 53 is clear.
	for i, f := range frames {
		switch a := tr.Frames[i].Arrival; {
		case a < 30:
			if f.Arrival != a {
				t.Errorf("frame %d before the window moved: %v -> %v", i, a, f.Arrival)
			}
		case a < 50:
			want := 50 + (a-30)*0.1
			if math.Abs(f.Arrival-want) > 1e-9 {
				t.Errorf("held frame %d: arrival %v, want %v", i, f.Arrival, want)
			}
		case a >= 54:
			if f.Arrival != a {
				t.Errorf("frame %d after the drain moved: %v -> %v", i, a, f.Arrival)
			}
		}
	}
	if inj.Report.Delayed != 23 { // 20 held + 3 queued behind the drain
		t.Errorf("Delayed = %d, want 23", inj.Report.Delayed)
	}
	if inj.Report.OutageS != 20 {
		t.Errorf("OutageS = %v, want 20", inj.Report.OutageS)
	}
	for i := 1; i < len(frames); i++ {
		if frames[i].Arrival < frames[i-1].Arrival {
			t.Fatalf("arrivals not monotone at %d: %v < %v", i, frames[i].Arrival, frames[i-1].Arrival)
		}
	}
}

func TestApplyStorm(t *testing.T) {
	// Frames at 1..100 s; storm [40, 60) compressing 4x: frames of the window
	// land in [55, 60), order preserved.
	tr := uniformTrace(100, 1)
	sc := Scenario{Name: "storm", Storms: []Storm{{StartS: 40, DurationS: 20, Compress: 4}}}
	inj, err := Apply(stats.NewRNG(1), tr, sc, nil)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for i, f := range inj.Trace.Frames {
		a := tr.Frames[i].Arrival
		if a < 40 || a >= 60 {
			if f.Arrival != a {
				t.Errorf("frame %d outside the window moved: %v -> %v", i, a, f.Arrival)
			}
			continue
		}
		n++
		want := 60 - (60-a)/4
		if math.Abs(f.Arrival-want) > 1e-9 {
			t.Errorf("frame %d: arrival %v, want %v", i, f.Arrival, want)
		}
		if f.Arrival < 55 || f.Arrival >= 60 {
			t.Errorf("frame %d landed at %v, outside the burst [55, 60)", i, f.Arrival)
		}
	}
	if inj.Report.Delayed != n || n != 20 {
		t.Errorf("Delayed = %d, window frames = %d, want 20", inj.Report.Delayed, n)
	}
}

func TestApplyCorruption(t *testing.T) {
	tr := uniformTrace(1000, 0.1)
	sc := Scenario{Name: "corruption", Corruptions: []Corruption{{
		StartS: 0, DurationS: 200, DropProb: 0.1, RedecodeProb: 0.2, RedecodeCost: 3,
	}}}
	inj, err := Apply(stats.NewRNG(5), tr, sc, nil)
	if err != nil {
		t.Fatal(err)
	}
	rep := inj.Report
	if rep.Dropped == 0 || rep.Redecoded == 0 {
		t.Fatalf("expected both drops and redecodes, got %+v", rep)
	}
	if rep.FramesOut != rep.FramesIn-rep.Dropped {
		t.Errorf("FramesOut = %d, want FramesIn %d - Dropped %d", rep.FramesOut, rep.FramesIn, rep.Dropped)
	}
	if len(inj.Trace.Frames) != rep.FramesOut {
		t.Errorf("trace has %d frames, report says %d", len(inj.Trace.Frames), rep.FramesOut)
	}
	redecoded := 0
	for i, f := range inj.Trace.Frames {
		if f.Seq != i {
			t.Fatalf("frame %d has Seq %d after drop re-indexing", i, f.Seq)
		}
		switch {
		case f.Work == tr.Frames[0].Work*3:
			redecoded++
		case f.Work != tr.Frames[0].Work:
			t.Fatalf("frame %d has unexplained work %v", i, f.Work)
		}
	}
	if redecoded != rep.Redecoded {
		t.Errorf("counted %d redecoded frames, report says %d", redecoded, rep.Redecoded)
	}
	if err := inj.Trace.Validate(); err != nil {
		t.Errorf("perturbed trace fails validation: %v", err)
	}
}

func TestApplyStragglers(t *testing.T) {
	tr := uniformTrace(1000, 0.1)
	sc := Scenario{Name: "stragglers", Stragglers: []Stragglers{{
		StartS: 0, DurationS: 200, Prob: 0.3, Shape: 1.5,
	}}}
	inj, err := Apply(stats.NewRNG(5), tr, sc, nil)
	if err != nil {
		t.Fatal(err)
	}
	straggled := 0
	for i, f := range inj.Trace.Frames {
		if f.Work < tr.Frames[i].Work {
			t.Fatalf("frame %d lost work: %v -> %v", i, tr.Frames[i].Work, f.Work)
		}
		if f.Work > tr.Frames[i].Work {
			straggled++
		}
	}
	if straggled != inj.Report.Straggled || straggled == 0 {
		t.Errorf("counted %d straggled frames, report says %d", straggled, inj.Report.Straggled)
	}
}

func TestApplySag(t *testing.T) {
	tr := uniformTrace(50, 1)
	sc := Scenario{Name: "sag", Sags: []Sag{{StartS: 10, DurationS: 15, Factor: 1.35}}}
	inj, err := Apply(stats.NewRNG(1), tr, sc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(inj.Derate) != 1 || inj.Report.SagWindows != 1 {
		t.Fatalf("derate windows = %v, report %d", inj.Derate, inj.Report.SagWindows)
	}
	w := inj.Derate[0]
	if w.StartS != 10 || w.EndS != 25 || w.Factor != 1.35 {
		t.Errorf("derate window = %+v", w)
	}
	for i, f := range inj.Trace.Frames {
		if f != tr.Frames[i] {
			t.Errorf("sag perturbed frame %d: %+v vs %+v", i, f, tr.Frames[i])
		}
	}
}

func TestApplyDeterminism(t *testing.T) {
	tr := uniformTrace(500, 0.2)
	sc := Scenario{
		Name:        "mix",
		Outages:     []Outage{{StartS: 20, DurationS: 10, CatchupRate: 50}},
		Corruptions: []Corruption{{StartS: 0, DurationS: 100, DropProb: 0.05, RedecodeProb: 0.1, RedecodeCost: 2}},
		Stragglers:  []Stragglers{{StartS: 0, DurationS: 100, Prob: 0.2, Shape: 1.5}},
	}
	a, err := Apply(stats.NewRNG(9).SplitAt(3), tr, sc, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Apply(stats.NewRNG(9).SplitAt(3), tr, sc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Trace.Frames) != len(b.Trace.Frames) {
		t.Fatalf("frame counts differ: %d vs %d", len(a.Trace.Frames), len(b.Trace.Frames))
	}
	for i := range a.Trace.Frames {
		if a.Trace.Frames[i] != b.Trace.Frames[i] {
			t.Fatalf("frame %d differs across identical seeds", i)
		}
	}
	if a.Report != b.Report {
		t.Errorf("reports differ: %+v vs %+v", a.Report, b.Report)
	}
	c, err := Apply(stats.NewRNG(10).SplitAt(3), tr, sc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.Report == c.Report {
		t.Errorf("different seeds produced identical reports: %+v", a.Report)
	}
}

func TestApplyErrors(t *testing.T) {
	tr := uniformTrace(10, 1)
	if _, err := Apply(nil, tr, Scenario{}, nil); err == nil {
		t.Error("nil RNG accepted")
	}
	if _, err := Apply(stats.NewRNG(1), nil, Scenario{}, nil); err == nil {
		t.Error("nil trace accepted")
	}
	if _, err := Apply(stats.NewRNG(1), &workload.Trace{}, Scenario{}, nil); err == nil {
		t.Error("empty trace accepted")
	}
	bad := Scenario{Outages: []Outage{{StartS: -1, DurationS: 1, CatchupRate: 1}}}
	if _, err := Apply(stats.NewRNG(1), tr, bad, nil); err == nil {
		t.Error("invalid scenario accepted")
	}
	allDrop := Scenario{Corruptions: []Corruption{{StartS: 0, DurationS: 100, DropProb: 1}}}
	if _, err := Apply(stats.NewRNG(1), tr, allDrop, nil); err == nil {
		t.Error("scenario dropping every frame accepted")
	}
}

func TestApplyObservability(t *testing.T) {
	var buf bytes.Buffer
	o := obs.New(obs.NewRegistry(), obs.NewTracer(&buf))
	tr := uniformTrace(200, 0.5)
	sc := Scenario{
		Name:        "mix",
		Outages:     []Outage{{StartS: 20, DurationS: 10, CatchupRate: 50}},
		Corruptions: []Corruption{{StartS: 0, DurationS: 100, DropProb: 0.1, RedecodeProb: 0.2, RedecodeCost: 2}},
		Sags:        []Sag{{StartS: 50, DurationS: 5, Factor: 1.2}},
	}
	inj, err := Apply(stats.NewRNG(3), tr, sc, o)
	if err != nil {
		t.Fatal(err)
	}
	if err := o.Tracer().Flush(); err != nil {
		t.Fatal(err)
	}
	if got := o.Registry().Counter("faults.frames_dropped").Value(); got != float64(inj.Report.Dropped) {
		t.Errorf("dropped counter = %v, report %d", got, inj.Report.Dropped)
	}
	if got := o.Registry().Counter("faults.frames_delayed").Value(); got != float64(inj.Report.Delayed) {
		t.Errorf("delayed counter = %v, report %d", got, inj.Report.Delayed)
	}
	if n := strings.Count(buf.String(), `"kind":"fault"`); n != 3 {
		t.Errorf("fault events = %d, want 3 (one per window)\n%s", n, buf.String())
	}
}

func TestCatalogue(t *testing.T) {
	if _, err := Catalogue(nil); err == nil {
		t.Error("nil trace accepted")
	}
	if _, err := Catalogue(&workload.Trace{}); err == nil {
		t.Error("empty trace accepted")
	}
	tr := uniformTrace(300, 1)
	scenarios, err := Catalogue(tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(scenarios) != len(Names())-1 {
		t.Fatalf("catalogue has %d scenarios, Names lists %d", len(scenarios), len(Names())-1)
	}
	names := Names()
	if names[0] != "none" {
		t.Errorf("Names()[0] = %q, want none", names[0])
	}
	for _, name := range names {
		if !ValidName(name) {
			t.Errorf("ValidName(%q) = false", name)
		}
		sc, err := ByName(name, tr)
		if err != nil {
			t.Errorf("ByName(%q): %v", name, err)
		}
		if name == "none" && !sc.Empty() {
			t.Error("none scenario is not empty")
		}
		if name != "none" && sc.Empty() {
			t.Errorf("scenario %q is empty", name)
		}
	}
	if sc, err := ByName("", tr); err != nil || !sc.Empty() {
		t.Errorf("empty name: %+v, %v", sc, err)
	}
	if _, err := ByName("bogus", tr); err == nil || ValidName("bogus") {
		t.Error("unknown scenario accepted")
	}
	// Short traces: window floors must not invalidate the scenarios.
	if _, err := Catalogue(uniformTrace(5, 1)); err != nil {
		t.Errorf("catalogue invalid for a short trace: %v", err)
	}
	// Single-frame degenerate trace: all anchors coincide, scenarios must
	// still validate (mayhem staggers its time-shifting windows).
	if _, err := Catalogue(uniformTrace(1, 1)); err != nil {
		t.Errorf("catalogue invalid for a single-frame trace: %v", err)
	}
}

// TestCatalogueAnchorsOnBursts is the regression for gap-heavy workloads: a
// trace that is one dense burst bracketed by long silences must still get its
// outage window over the burst, not over a gap.
func TestCatalogueAnchorsOnBursts(t *testing.T) {
	// 200 frames packed into [1000, 1020), inside a 4000 s timeline.
	frames := make([]workload.TraceFrame, 200)
	for i := range frames {
		frames[i] = workload.TraceFrame{Seq: i, Arrival: 1000 + float64(i)*0.1, Work: 0.01}
	}
	frames = append(frames, workload.TraceFrame{Seq: 200, Arrival: 4000, Work: 0.01})
	for i := range frames {
		frames[i].Seq = i
	}
	tr := &workload.Trace{
		Frames:   frames,
		Changes:  []workload.RateChange{{ArrivalRate: 10, DecodeRateMax: 100}},
		Duration: 4000,
	}
	sc, err := ByName("outage", tr)
	if err != nil {
		t.Fatal(err)
	}
	inj, err := Apply(stats.NewRNG(1), tr, sc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if inj.Report.Delayed == 0 {
		t.Errorf("outage window [%v, +%v) held no frames of the burst",
			sc.Outages[0].StartS, sc.Outages[0].DurationS)
	}
}

func TestReportString(t *testing.T) {
	r := Report{Scenario: "mix", FramesIn: 100, FramesOut: 98, Delayed: 5,
		Dropped: 2, Redecoded: 3, Straggled: 4, OutageS: 12.5, SagWindows: 1}
	s := r.String()
	for _, want := range []string{"mix", "100 -> 98", "5 delayed", "2 dropped",
		"3 redecoded", "4 straggled", "12.5 s offline", "1 sag"} {
		if !strings.Contains(s, want) {
			t.Errorf("report %q missing %q", s, want)
		}
	}
}
