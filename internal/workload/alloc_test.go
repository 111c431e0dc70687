package workload

import (
	"math"
	"runtime"
	"testing"
	"unsafe"

	"smartbadge/internal/stats"
)

// TestGenerateAllocation checks that Generate allocates about one trace's
// worth of frames: the frame slice is sized up front from the expected frame
// count, so append never copies it. Bytes are a MemStats delta around one
// call, the least of three identical calls; the test is not parallel.
func TestGenerateAllocation(t *testing.T) {
	mp3, err := MP3Sequence("ACEFBD")
	if err != nil {
		t.Fatal(err)
	}
	gapped, err := MP3Sequence("AC")
	if err != nil {
		t.Fatal(err)
	}
	gapped = append(gapped, Football(), MP3Clips()[4])
	cases := []struct {
		name  string
		clips []Clip
		opts  GenerateOptions
	}{
		{"mp3", mp3, GenerateOptions{}},
		{"mpeg", MPEGClips(), GenerateOptions{}},
		{"gapped", gapped, GenerateOptions{Gap: stats.NewPareto(2, 1.5)}},
	}
	for _, c := range cases {
		bytes := uint64(math.MaxUint64)
		frames := 0
		for i := 0; i < 3; i++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			tr, err := Generate(stats.NewRNG(7), c.clips, c.opts)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			frames = len(tr.Frames)
			if d := after.TotalAlloc - before.TotalAlloc; d < bytes {
				bytes = d
			}
		}
		frameBytes := float64(frames) * float64(unsafe.Sizeof(TraceFrame{}))
		limit := 1.3*frameBytes + 16<<10
		t.Logf("%s: %d frames, %d bytes allocated (%.2f× the frames)", c.name, frames, bytes, float64(bytes)/frameBytes)
		if float64(bytes) > limit {
			t.Errorf("%s: Generate allocated %d bytes for %d frames (%.0f bytes), want at most %.0f",
				c.name, bytes, frames, frameBytes, limit)
		}
	}
}

func TestExpectedFramesHint(t *testing.T) {
	seg := func(d, rate float64) Clip { return Clip{Segments: []Segment{{Duration: d, ArrivalRate: rate}}} }
	for _, c := range []struct {
		name  string
		clips []Clip
		want  int
	}{
		{"mean plus four sigma", []Clip{seg(100, 1)}, 100 + 40 + 16},
		{"capped", []Clip{seg(1e9, 40)}, maxFrameHint},
		{"infinite", []Clip{seg(math.Inf(1), 40)}, 0},
		{"NaN", []Clip{seg(math.NaN(), 40)}, 0},
		{"negative", []Clip{seg(-100, 40)}, 0},
	} {
		if got := expectedFrames(c.clips); got != c.want {
			t.Errorf("%s: expectedFrames = %d, want %d", c.name, got, c.want)
		}
	}
}
