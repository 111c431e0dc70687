package workload

import (
	"math"
	"reflect"
	"testing"

	"smartbadge/internal/stats"
)

// recycleCases is a clip-list sequence that shrinks, regrows and shrinks the
// frame count (MPEG ~45.6k frames, MP3 ~17.6k, gapped ~30k) and takes
// IdleGaps from empty to full to empty, so every generation after the first
// lands in a dirty trace that held more than it needs.
func recycleCases(t *testing.T) []struct {
	name  string
	clips []Clip
	opts  GenerateOptions
} {
	t.Helper()
	mp3, err := MP3Sequence("ACEFBD")
	if err != nil {
		t.Fatal(err)
	}
	gapped, err := MP3Sequence("AC")
	if err != nil {
		t.Fatal(err)
	}
	gapped = append(gapped, Football(), MP3Clips()[4])
	return []struct {
		name  string
		clips []Clip
		opts  GenerateOptions
	}{
		{"mpeg", MPEGClips(), GenerateOptions{}},
		{"mp3", mp3, GenerateOptions{}},
		{"gapped", gapped, GenerateOptions{Gap: stats.NewPareto(2, 1.5)}},
		{"mp3 again", mp3, GenerateOptions{}},
	}
}

// TestGenerateIntoMatchesGenerate: generating into a recycled trace must
// equal a fresh Generate element by element — frames, rate changes and idle
// gaps — with the same Duration, Kind and Clips. Only an empty IdleGaps may
// differ, as non-nil.
func TestGenerateIntoMatchesGenerate(t *testing.T) {
	bits := math.Float64bits
	dst := &Trace{}
	for i, c := range recycleCases(t) {
		seed := uint64(100 + i)
		want, err := Generate(stats.NewRNG(seed), c.clips, c.opts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := GenerateInto(dst, stats.NewRNG(seed), c.clips, c.opts)
		if err != nil {
			t.Fatal(err)
		}
		if got != dst {
			t.Fatalf("%s: GenerateInto returned a new trace, not dst", c.name)
		}
		if len(got.Frames) != len(want.Frames) {
			t.Fatalf("%s: %d frames, want %d", c.name, len(got.Frames), len(want.Frames))
		}
		for j := range want.Frames {
			if got.Frames[j] != want.Frames[j] {
				t.Fatalf("%s: frame %d = %+v, want %+v", c.name, j, got.Frames[j], want.Frames[j])
			}
		}
		if !reflect.DeepEqual(got.Changes, want.Changes) {
			t.Errorf("%s: rate changes differ:\n got %+v\nwant %+v", c.name, got.Changes, want.Changes)
		}
		if len(got.IdleGaps) != len(want.IdleGaps) {
			t.Fatalf("%s: %d idle gaps, want %d", c.name, len(got.IdleGaps), len(want.IdleGaps))
		}
		for j := range want.IdleGaps {
			if bits(got.IdleGaps[j]) != bits(want.IdleGaps[j]) {
				t.Errorf("%s: idle gap %d = %v, want %v", c.name, j, got.IdleGaps[j], want.IdleGaps[j])
			}
		}
		if bits(got.Duration) != bits(want.Duration) || got.Kind != want.Kind {
			t.Errorf("%s: duration/kind %v/%v, want %v/%v", c.name, got.Duration, got.Kind, want.Duration, want.Kind)
		}
		if !reflect.DeepEqual(got.Clips, want.Clips) {
			t.Errorf("%s: clips differ", c.name)
		}
	}
}
