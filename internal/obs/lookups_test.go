package obs_test

import (
	"io"
	"testing"

	"smartbadge"
	"smartbadge/internal/obs"
)

// TestLookupsIndependentOfWorkloadLength is the handle-caching rule as a
// runtime check: a fully instrumented run resolves the same number of
// instrument names whether it simulates 6,799 frames or 16,992, so no name
// lookup sits on a per-frame or per-event path.
func TestLookupsIndependentOfWorkloadLength(t *testing.T) {
	lookups := func(seq string) (int, int) {
		tr, err := smartbadge.MP3Trace(1, seq)
		if err != nil {
			t.Fatal(err)
		}
		reg := obs.NewRegistry()
		if _, err := smartbadge.Run(smartbadge.Options{
			Application: smartbadge.AppMP3,
			Policy:      smartbadge.PolicyChangePoint,
			DPM:         smartbadge.DPMRenewal,
			Trace:       tr,
			Obs:         obs.New(reg, obs.NewTracer(io.Discard)),
		}); err != nil {
			t.Fatal(err)
		}
		return obs.Lookups(reg), len(tr.Frames)
	}
	short, shortFrames := lookups("AC")
	long, longFrames := lookups("ACEFBD")
	if short == 0 {
		t.Fatal("the instrumented run resolved no instruments")
	}
	if short != long {
		t.Errorf("%d frames resolved %d instrument names but %d frames resolved %d; a lookup runs per frame or per event",
			shortFrames, short, longFrames, long)
	}
	t.Logf("%d and %d lookups for %d and %d frames", short, long, shortFrames, longFrames)
}
