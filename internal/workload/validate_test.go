package workload

import (
	"math"
	"strings"
	"testing"

	"smartbadge/internal/stats"
)

// validTrace builds the smallest trace Validate accepts.
func validTrace(n int) *Trace {
	tr := &Trace{Changes: []RateChange{{ArrivalRate: 10, DecodeRateMax: 40}}}
	for i := 0; i < n; i++ {
		tr.Frames = append(tr.Frames, TraceFrame{Seq: i, Arrival: float64(i) * 0.1, Work: 0.01})
	}
	if n > 0 {
		tr.Duration = tr.Frames[n-1].Arrival
	}
	return tr
}

func TestTraceValidate(t *testing.T) {
	cases := []struct {
		name string
		mod  func(*Trace) *Trace
		want string // "" means valid
	}{
		{"single frame", func(tr *Trace) *Trace { return validTrace(1) }, ""},
		{"many frames", func(tr *Trace) *Trace { return tr }, ""},
		{"nil trace", func(tr *Trace) *Trace { return nil }, "nil trace"},
		{"zero frames", func(tr *Trace) *Trace { return validTrace(0) }, "no frames"},
		{"no changes", func(tr *Trace) *Trace { tr.Changes = nil; return tr }, "rate-change"},
		{"seq mismatch", func(tr *Trace) *Trace { tr.Frames[3].Seq = 7; return tr }, "Seq"},
		{"negative arrival", func(tr *Trace) *Trace { tr.Frames[0].Arrival = -1; return tr }, "invalid arrival"},
		{"NaN arrival", func(tr *Trace) *Trace { tr.Frames[2].Arrival = math.NaN(); return tr }, "invalid arrival"},
		{"Inf arrival", func(tr *Trace) *Trace { tr.Frames[2].Arrival = math.Inf(1); return tr }, "invalid arrival"},
		{"decreasing arrival", func(tr *Trace) *Trace { tr.Frames[3].Arrival = 0.05; return tr }, "before frame"},
		{"negative work", func(tr *Trace) *Trace { tr.Frames[1].Work = -0.01; return tr }, "invalid decode work"},
		{"NaN work", func(tr *Trace) *Trace { tr.Frames[1].Work = math.NaN(); return tr }, "invalid decode work"},
		{"negative clip index", func(tr *Trace) *Trace { tr.Frames[2].ClipIndex = -1; return tr }, "invalid clip index"},
		{"clip index past the clip list", func(tr *Trace) *Trace {
			tr.Clips = []Clip{{Label: "A"}, {Label: "B"}}
			tr.Frames[4].ClipIndex = 2
			return tr
		}, "invalid clip index"},
		{"clip index inside the clip list", func(tr *Trace) *Trace {
			tr.Clips = []Clip{{Label: "A"}, {Label: "B"}}
			tr.Frames[4].ClipIndex = 1
			return tr
		}, ""},
		{"clip index without a clip list", func(tr *Trace) *Trace { tr.Frames[4].ClipIndex = 7; return tr }, ""},
		{"zero arrival rate", func(tr *Trace) *Trace { tr.Changes[0].ArrivalRate = 0; return tr }, "invalid arrival rate"},
		{"NaN arrival rate", func(tr *Trace) *Trace { tr.Changes[0].ArrivalRate = math.NaN(); return tr }, "invalid arrival rate"},
		{"Inf decode rate", func(tr *Trace) *Trace { tr.Changes[0].DecodeRateMax = math.Inf(1); return tr }, "invalid decode rate"},
	}
	for _, c := range cases {
		tr := c.mod(validTrace(5))
		err := tr.Validate()
		if c.want == "" {
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
}

// TestGeneratedTracesValidate pins the contract that every generator output
// passes Validate.
func TestGeneratedTracesValidate(t *testing.T) {
	clips, err := MP3Sequence("ACE")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Generate(stats.NewRNG(3), clips, GenerateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Errorf("generated trace invalid: %v", err)
	}
	st, err := StepTrace(stats.NewRNG(3), 10, 60, 40, 50, 50)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Validate(); err != nil {
		t.Errorf("step trace invalid: %v", err)
	}
}

func TestDegenerateTraceHelpers(t *testing.T) {
	// Single-frame trace: the helpers must not divide by zero or panic.
	one := validTrace(1)
	if gaps := one.Interarrivals(); len(gaps) != 1 || gaps[0] != 0 {
		t.Errorf("single-frame interarrivals = %v", gaps)
	}
	if w := one.TotalWork(); w != 0.01 {
		t.Errorf("single-frame total work = %v", w)
	}
	m := one.IdleModel()
	if m == nil {
		t.Fatal("single-frame idle model is nil")
	}
	if s := m.Sample(stats.NewRNG(1)); s < 0 || math.IsNaN(s) {
		t.Errorf("idle model sample = %v", s)
	}
	// Zero-duration trace (one frame at t=0): rates lookup still works.
	if a, d := one.RatesAt(0); a != 10 || d != 40 {
		t.Errorf("RatesAt = %v, %v", a, d)
	}
}

func TestIdleModelWithGaps(t *testing.T) {
	// A trace with enough inter-clip gaps gets the mixture model; the model
	// must produce non-negative samples.
	tr := validTrace(100)
	tr.IdleGaps = []float64{120, 250, 400, 180}
	m := tr.IdleModel()
	rng := stats.NewRNG(2)
	for i := 0; i < 1000; i++ {
		if s := m.Sample(rng); s < 0 || math.IsNaN(s) {
			t.Fatalf("sample %d = %v", i, s)
		}
	}
	// Fewer than 3 gaps: falls back to the short-gap exponential.
	tr2 := validTrace(100)
	tr2.IdleGaps = []float64{120}
	if m2 := tr2.IdleModel(); m2 == nil {
		t.Error("idle model nil with few gaps")
	}
}
