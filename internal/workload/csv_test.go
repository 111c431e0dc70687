package workload

import (
	"bytes"
	"strings"
	"testing"

	"smartbadge/internal/stats"
)

func TestCSVRoundTrip(t *testing.T) {
	rng := stats.NewRNG(1)
	clips, _ := MP3Sequence("ABC")
	orig, err := Generate(rng, clips, GenerateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, orig); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Frames) != len(orig.Frames) {
		t.Fatalf("frames: %d vs %d", len(got.Frames), len(orig.Frames))
	}
	for i := range orig.Frames {
		if got.Frames[i] != orig.Frames[i] {
			t.Fatalf("frame %d differs: %+v vs %+v", i, got.Frames[i], orig.Frames[i])
		}
	}
	if got.Duration != orig.Duration {
		t.Errorf("duration: %v vs %v", got.Duration, orig.Duration)
	}
	// Rate-change schedule reconstructed: one change per clip.
	if len(got.Changes) != len(orig.Changes) {
		t.Errorf("changes: %d vs %d", len(got.Changes), len(orig.Changes))
	}
	for i := range got.Changes {
		if got.Changes[i].ArrivalRate != orig.Changes[i].ArrivalRate ||
			got.Changes[i].DecodeRateMax != orig.Changes[i].DecodeRateMax ||
			got.Changes[i].FirstFrameOfRange != orig.Changes[i].FirstFrameOfRange {
			t.Errorf("change %d differs: %+v vs %+v", i, got.Changes[i], orig.Changes[i])
		}
	}
}

func TestWriteCSVEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteCSV(&buf, &Trace{}); err == nil {
		t.Error("empty trace accepted")
	}
	if err := WriteCSV(&buf, nil); err == nil {
		t.Error("nil trace accepted")
	}
}

func TestReadCSVErrors(t *testing.T) {
	header := "seq,arrival_s,work_at_fmax_s,clip,arrival_rate,decode_rate_max\n"
	cases := map[string]string{
		"empty input":      "",
		"wrong header":     "a,b,c,d,e,f\n",
		"no frames":        header,
		"bad seq":          header + "x,0.1,0.01,0,20,95\n",
		"out-of-order seq": header + "1,0.1,0.01,0,20,95\n",
		"bad float":        header + "0,zzz,0.01,0,20,95\n",
		"negative work":    header + "0,0.1,-0.01,0,20,95\n",
		"zero work":        header + "0,0.1,0,0,20,95\n",
		"bad clip":         header + "0,0.1,0.01,x,20,95\n",
		"negative clip":    header + "0,0.1,0.01,-1,20,95\n",
		"short row":        header + "0,0.1\n",
		"non-increasing":   header + "0,0.1,0.01,0,20,95\n1,0.1,0.01,0,20,95\n",
		"negative arrival": header + "0,-0.1,0.01,0,20,95\n",
	}
	for name, in := range cases {
		if _, err := ReadCSV(strings.NewReader(in)); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}
