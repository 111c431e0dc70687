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
// count, so append never copies it. It also checks that GenerateInto, once
// its trace has held the longest case, allocates no frames at all: at most
// 1 KiB (the MPEG GOP cycles are built per call). Bytes are a MemStats delta
// around one call, the least of three identical calls; the test is not
// parallel.
func TestGenerateAllocation(t *testing.T) {
	least := func(gen func() (*Trace, error)) uint64 {
		bytes := uint64(math.MaxUint64)
		for i := 0; i < 3; i++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := gen()
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
		}
		return bytes
	}
	cases := recycleCases(t)[:3] // mpeg, mp3, gapped
	warm := &Trace{}
	for _, c := range cases {
		if _, err := GenerateInto(warm, stats.NewRNG(1), c.clips, c.opts); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range cases {
		var tr *Trace
		bytes := least(func() (*Trace, error) {
			var err error
			tr, err = Generate(stats.NewRNG(7), c.clips, c.opts)
			return tr, err
		})
		frames := len(tr.Frames)
		frameBytes := float64(frames) * float64(unsafe.Sizeof(TraceFrame{}))
		limit := 1.3*frameBytes + 16<<10
		t.Logf("%s: %d frames, %d bytes allocated (%.2f× the frames)", c.name, frames, bytes, float64(bytes)/frameBytes)
		if float64(bytes) > limit {
			t.Errorf("%s: Generate allocated %d bytes for %d frames (%.0f bytes), want at most %.0f",
				c.name, bytes, frames, frameBytes, limit)
		}
		if into := least(func() (*Trace, error) { return GenerateInto(warm, stats.NewRNG(7), c.clips, c.opts) }); into > 1<<10 {
			t.Errorf("%s: GenerateInto a warm trace allocated %d bytes, want at most 1 KiB", c.name, into)
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
