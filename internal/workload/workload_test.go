package workload

import (
	"math"
	"testing"

	"smartbadge/internal/stats"
)

func TestMP3ClipsTable2(t *testing.T) {
	clips := MP3Clips()
	if len(clips) != 6 {
		t.Fatalf("clip count = %d, want 6", len(clips))
	}
	labels := "ABCDEF"
	total := 0.0
	for i, c := range clips {
		if c.Label != string(labels[i]) {
			t.Errorf("clip %d label = %q, want %q", i, c.Label, string(labels[i]))
		}
		if err := c.Validate(); err != nil {
			t.Errorf("clip %s: %v", c.Label, err)
		}
		if c.Kind != MP3 {
			t.Errorf("clip %s kind = %v, want MP3", c.Label, c.Kind)
		}
		if len(c.Segments) != 1 {
			t.Errorf("clip %s: MP3 clips are single-segment", c.Label)
		}
		// Arrival rate must follow from the MP3 frame structure.
		want := c.SampleRateKHz * 1000 / 1152
		if got := c.MeanArrivalRate(); math.Abs(got-want) > 1e-9 {
			t.Errorf("clip %s arrival rate = %v, want %v from sample rate", c.Label, got, want)
		}
		total += c.Duration()
	}
	if math.Abs(total-653) > 1e-9 {
		t.Errorf("total audio duration = %v, want 653 s (paper)", total)
	}
	// The paper: arrival rates between 6 and 44 fr/s.
	lo, hi := ArrivalRateBounds(clips)
	if lo < 6 || hi > 44 {
		t.Errorf("MP3 arrival band [%v, %v] outside the paper's 6-44 fr/s", lo, hi)
	}
}

func TestMP3DecodeRateSpread(t *testing.T) {
	// "the variation in decoding rate between clips can be large"
	clips := MP3Clips()
	lo, hi := math.Inf(1), 0.0
	for _, c := range clips {
		r := c.MeanDecodeRateMax()
		if r < lo {
			lo = r
		}
		if r > hi {
			hi = r
		}
	}
	if hi/lo < 1.3 {
		t.Errorf("decode-rate spread %v/%v too small to exercise DVS", hi, lo)
	}
}

func TestMP3ClipByLabel(t *testing.T) {
	c, ok := MP3ClipByLabel("C")
	if !ok || c.Label != "C" {
		t.Fatal("lookup of clip C failed")
	}
	if _, ok := MP3ClipByLabel("Z"); ok {
		t.Error("lookup of unknown clip succeeded")
	}
}

func TestMP3Sequence(t *testing.T) {
	for _, seq := range []string{"ACEFBD", "BADECF", "CEDAFB"} {
		clips, err := MP3Sequence(seq)
		if err != nil {
			t.Fatalf("%s: %v", seq, err)
		}
		if len(clips) != 6 {
			t.Fatalf("%s: got %d clips", seq, len(clips))
		}
		for i, c := range clips {
			if c.Label != string(seq[i]) {
				t.Errorf("%s[%d] = %s", seq, i, c.Label)
			}
		}
	}
	if _, err := MP3Sequence("AXB"); err == nil {
		t.Error("unknown label accepted")
	}
	if _, err := MP3Sequence(""); err == nil {
		t.Error("empty sequence accepted")
	}
	// Lower-case labels are accepted.
	if _, err := MP3Sequence("acefbd"); err != nil {
		t.Errorf("lower-case sequence rejected: %v", err)
	}
}

func TestMPEGClips(t *testing.T) {
	fb, t2 := Football(), Terminator2()
	if math.Abs(fb.Duration()-875) > 1e-9 {
		t.Errorf("Football duration = %v, want 875 s", fb.Duration())
	}
	if math.Abs(t2.Duration()-1200) > 1e-9 {
		t.Errorf("Terminator2 duration = %v, want 1200 s", t2.Duration())
	}
	for _, c := range MPEGClips() {
		if err := c.Validate(); err != nil {
			t.Errorf("%s: %v", c.Label, err)
		}
		if c.Kind != MPEG {
			t.Errorf("%s kind = %v", c.Label, c.Kind)
		}
		if len(c.Segments) < 3 {
			t.Errorf("%s: video clips need scene variation, got %d segments", c.Label, len(c.Segments))
		}
		if len(c.GOP) == 0 {
			t.Errorf("%s: video clips need a GOP work structure", c.Label)
		}
	}
	lo, hi := ArrivalRateBounds(MPEGClips())
	if lo < 9 || hi > 32 {
		t.Errorf("MPEG arrival band [%v, %v] outside the paper's 9-32 fr/s", lo, hi)
	}
}

func TestGOPSpread(t *testing.T) {
	gop := DefaultGOP()
	lo, hi := math.Inf(1), 0.0
	for _, m := range gop {
		if m < lo {
			lo = m
		}
		if m > hi {
			hi = m
		}
	}
	if hi/lo < 3 || hi/lo > 4 {
		t.Errorf("GOP spread = %v, want ≈3x (paper's MPEG cycle-count spread)", hi/lo)
	}
}

func TestSegmentValidate(t *testing.T) {
	bad := []Segment{
		{Duration: 0, ArrivalRate: 10, DecodeRateMax: 20},
		{Duration: 10, ArrivalRate: 0, DecodeRateMax: 20},
		{Duration: 10, ArrivalRate: 10, DecodeRateMax: 0},
		{Duration: 10, ArrivalRate: 25, DecodeRateMax: 20}, // unsustainable
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
	good := Segment{Duration: 10, ArrivalRate: 10, DecodeRateMax: 20}
	if err := good.Validate(); err != nil {
		t.Errorf("valid segment rejected: %v", err)
	}
}

func TestClipValidate(t *testing.T) {
	ok := Segment{Duration: 10, ArrivalRate: 10, DecodeRateMax: 20}
	bad := []Clip{
		{Label: "", Segments: []Segment{ok}},
		{Label: "x"},
		{Label: "x", Segments: []Segment{{Duration: -1, ArrivalRate: 1, DecodeRateMax: 2}}},
		{Label: "x", Segments: []Segment{ok}, GOP: []float64{1, 0}},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestKindString(t *testing.T) {
	if MP3.String() != "MP3" || MPEG.String() != "MPEG" {
		t.Error("kind strings wrong")
	}
	if Kind(9).String() != "Kind(9)" {
		t.Error("unknown kind string wrong")
	}
}

func TestGenerateBasicTrace(t *testing.T) {
	rng := stats.NewRNG(1)
	clips, _ := MP3Sequence("ACEFBD")
	tr, err := Generate(rng, clips, GenerateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Frames) == 0 {
		t.Fatal("empty trace")
	}
	// Arrival times strictly increase and Seq is dense.
	prev := -1.0
	for i, f := range tr.Frames {
		if f.Seq != i {
			t.Fatalf("frame %d has Seq %d", i, f.Seq)
		}
		if f.Arrival <= prev {
			t.Fatalf("arrivals not increasing at %d: %v <= %v", i, f.Arrival, prev)
		}
		if f.Work <= 0 {
			t.Fatalf("frame %d has non-positive work", i)
		}
		prev = f.Arrival
	}
	// Expected frame count ≈ Σ duration·rate.
	want := 0.0
	for _, c := range clips {
		for _, s := range c.Segments {
			want += s.Duration * s.ArrivalRate
		}
	}
	got := float64(len(tr.Frames))
	if math.Abs(got-want)/want > 0.05 {
		t.Errorf("frame count = %v, want ≈ %v", got, want)
	}
	// One rate change per segment.
	if len(tr.Changes) != 6 {
		t.Errorf("changes = %d, want 6 (one per MP3 clip)", len(tr.Changes))
	}
	// No gaps requested.
	if len(tr.IdleGaps) != 0 {
		t.Errorf("unexpected idle gaps: %v", tr.IdleGaps)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	clips, _ := MP3Sequence("AB")
	a, err := Generate(stats.NewRNG(9), clips, GenerateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(stats.NewRNG(9), clips, GenerateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Frames) != len(b.Frames) {
		t.Fatalf("frame counts differ: %d vs %d", len(a.Frames), len(b.Frames))
	}
	for i := range a.Frames {
		if a.Frames[i] != b.Frames[i] {
			t.Fatalf("frame %d differs", i)
		}
	}
}

func TestGenerateWithGaps(t *testing.T) {
	rng := stats.NewRNG(5)
	clips, _ := MP3Sequence("ABC")
	tr, err := Generate(rng, clips, GenerateOptions{Gap: stats.Deterministic{Value: 30}})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.IdleGaps) != 2 {
		t.Fatalf("gaps = %d, want 2", len(tr.IdleGaps))
	}
	for _, g := range tr.IdleGaps {
		if g != 30 {
			t.Errorf("gap = %v, want 30", g)
		}
	}
	// Total duration must include both gaps.
	wantMin := clips[0].Duration() + 30 + clips[1].Duration() + 30
	if tr.Duration < wantMin*0.95 {
		t.Errorf("duration = %v, want > %v", tr.Duration, wantMin*0.95)
	}
}

func TestGenerateErrors(t *testing.T) {
	rng := stats.NewRNG(1)
	if _, err := Generate(rng, nil, GenerateOptions{}); err == nil {
		t.Error("empty clip list accepted")
	}
	bad := Clip{Label: "x", Segments: []Segment{{Duration: 5, ArrivalRate: 30, DecodeRateMax: 10}}}
	if _, err := Generate(rng, []Clip{bad}, GenerateOptions{}); err == nil {
		t.Error("unsustainable clip accepted")
	}
}

func TestGenerateGOPPreservesMeanWork(t *testing.T) {
	rng := stats.NewRNG(42)
	clip := Football()
	tr, err := Generate(rng, []Clip{clip}, GenerateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Mean work per frame in each segment ≈ 1/DecodeRateMax despite the GOP
	// multipliers (they are normalised to mean 1).
	bySeg := map[int][]float64{}
	for _, f := range tr.Frames {
		_, dr := tr.RatesAt(f.Arrival)
		key := int(dr)
		bySeg[key] = append(bySeg[key], f.Work)
	}
	for dr, works := range bySeg {
		if len(works) < 500 {
			continue
		}
		mean := 0.0
		for _, w := range works {
			mean += w
		}
		mean /= float64(len(works))
		want := 1 / float64(dr)
		if math.Abs(mean-want)/want > 0.15 {
			t.Errorf("segment decode rate %d: mean work %v, want ≈ %v", dr, mean, want)
		}
	}
}

func TestGenerateGOPSpreadVisible(t *testing.T) {
	rng := stats.NewRNG(43)
	tr, err := Generate(rng, []Clip{Football()}, GenerateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Consecutive I and B frames should show a visible work difference on
	// average: compare frames at GOP positions 0 (I) vs 1 (B) within the
	// first segment.
	var iW, bW stats.Moments
	for i, f := range tr.Frames {
		if f.Arrival > 100 {
			break
		}
		switch i % 12 {
		case 0:
			iW.Add(f.Work)
		case 1, 2:
			bW.Add(f.Work)
		}
	}
	if iW.Count() < 10 || bW.Count() < 10 {
		t.Skip("not enough frames")
	}
	if iW.Mean() < 1.5*bW.Mean() {
		t.Errorf("I-frame mean work %v not clearly above B-frame %v", iW.Mean(), bW.Mean())
	}
}

func TestStepTrace(t *testing.T) {
	rng := stats.NewRNG(7)
	tr, err := StepTrace(rng, 10, 60, 100, 50, 150)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Frames) != 200 {
		t.Fatalf("frames = %d, want 200", len(tr.Frames))
	}
	if len(tr.Changes) != 2 {
		t.Fatalf("changes = %d, want 2", len(tr.Changes))
	}
	if tr.Frames[49].TrueArrivalRate != 10 || tr.Frames[50].TrueArrivalRate != 60 {
		t.Error("step boundary rates wrong")
	}
	if tr.Changes[1].FirstFrameOfRange != 50 {
		t.Errorf("second change starts at frame %d, want 50", tr.Changes[1].FirstFrameOfRange)
	}
	for _, bad := range []func() error{
		func() error { _, err := StepTrace(rng, 0, 60, 100, 50, 150); return err },
		func() error { _, err := StepTrace(rng, 10, 60, 100, 0, 150); return err },
	} {
		if bad() == nil {
			t.Error("invalid step trace accepted")
		}
	}
}

func TestInterarrivalsAndRatesAt(t *testing.T) {
	rng := stats.NewRNG(77)
	tr, err := StepTrace(rng, 20, 40, 100, 100, 100)
	if err != nil {
		t.Fatal(err)
	}
	gaps := tr.Interarrivals()
	if len(gaps) != len(tr.Frames) {
		t.Fatalf("gap count mismatch")
	}
	sum := 0.0
	for _, g := range gaps {
		if g <= 0 {
			t.Fatal("non-positive gap")
		}
		sum += g
	}
	if math.Abs(sum-tr.Duration) > 1e-9 {
		t.Errorf("gap sum %v != duration %v", sum, tr.Duration)
	}
	// Oracle lookup.
	a0, _ := tr.RatesAt(0)
	if a0 != 20 {
		t.Errorf("RatesAt(0) arrival = %v, want 20", a0)
	}
	aEnd, _ := tr.RatesAt(tr.Duration)
	if aEnd != 40 {
		t.Errorf("RatesAt(end) arrival = %v, want 40", aEnd)
	}
	if tw := tr.TotalWork(); tw <= 0 {
		t.Error("total work must be positive")
	}
}

func TestRatesAtEmptyTrace(t *testing.T) {
	tr := &Trace{}
	a, d := tr.RatesAt(5)
	if a != 0 || d != 0 {
		t.Error("empty trace should report zero rates")
	}
}

func TestGenerateParetoGapsPositive(t *testing.T) {
	rng := stats.NewRNG(13)
	clips, _ := MP3Sequence("ABCD")
	tr, err := Generate(rng, clips, GenerateOptions{
		Gap: stats.Shifted{Offset: 5, Base: stats.NewPareto(10, 2)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.IdleGaps) != 3 {
		t.Fatalf("gaps = %d, want 3", len(tr.IdleGaps))
	}
	for _, g := range tr.IdleGaps {
		if g < 15 {
			t.Errorf("gap %v below offset+scale minimum 15", g)
		}
	}
}
