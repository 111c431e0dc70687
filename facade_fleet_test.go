package smartbadge

import (
	"context"
	"math"
	"testing"

	"smartbadge/internal/experiments"
	"smartbadge/internal/fleet"
	"smartbadge/internal/stats"
	"smartbadge/internal/workload"
)

// TestFacadeMatchesFleet requires the facade's Run and the fleet engine to
// agree bit for bit on every badge of the default 12-way mix. Each badge's
// trace is rebuilt the way fleet builds it (stream SplitAt(i) of the batch
// seed) and run through Run with the badge's application, policy and DPM.
func TestFacadeMatchesFleet(t *testing.T) {
	const badges = 12 // one of each default app × policy × DPM spec
	for _, seed := range []uint64{7, 11} {
		cfg := fleet.Config{Badges: badges, Seed: seed}
		rep, err := fleet.RunCtx(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Badges) != badges {
			t.Fatalf("seed %d: fleet ran %d of %d badges (failed: %v)", seed, len(rep.Badges), badges, rep.Failed)
		}
		for i, want := range rep.Badges {
			spec := cfg.SpecFor(i)
			tr, err := fleetTrace(spec.App, stats.NewRNG(seed).SplitAt(uint64(i)))
			if err != nil {
				t.Fatal(err)
			}
			res, err := Run(Options{
				Application: Application(spec.App),
				Policy:      Policy(spec.Policy.WireName()),
				DPM:         DPMMode(spec.DPM),
				Trace:       tr,
			})
			if err != nil {
				t.Fatalf("seed %d badge %d: %v", seed, i, err)
			}
			got := fleet.BadgeResult{
				Spec:          spec,
				EnergyJ:       res.EnergyJ,
				MeanDelayS:    res.FrameDelay.Mean(),
				SimTimeS:      res.SimTime,
				AvgPowerW:     res.AvgPowerW,
				FramesDecoded: res.FramesDecoded,
				Sleeps:        res.Sleeps,
			}
			if !sameBits(got, want) {
				t.Errorf("seed %d badge %d (%s/%s/%s):\nfacade %+v\nfleet  %+v",
					seed, i, spec.App, spec.Policy.WireName(), spec.DPM, got, want)
			}
		}
	}
}

// fleetTrace builds a badge's workload as fleet does for its app.
func fleetTrace(app string, rng *stats.RNG) (*Trace, error) {
	switch app {
	case "mp3":
		clips, err := workload.MP3Sequence("ACEFBD")
		if err != nil {
			return nil, err
		}
		return workload.Generate(rng, clips, workload.GenerateOptions{})
	case "mpeg":
		return workload.Generate(rng, workload.MPEGClips(), workload.GenerateOptions{})
	default:
		return experiments.Table5Workload(rng.Uint64())
	}
}

// sameBits compares two badge results field by field, floats by their bits.
func sameBits(a, b fleet.BadgeResult) bool {
	bits := math.Float64bits
	return a.Spec == b.Spec &&
		bits(a.EnergyJ) == bits(b.EnergyJ) &&
		bits(a.MeanDelayS) == bits(b.MeanDelayS) &&
		bits(a.SimTimeS) == bits(b.SimTimeS) &&
		bits(a.AvgPowerW) == bits(b.AvgPowerW) &&
		a.FramesDecoded == b.FramesDecoded &&
		a.Sleeps == b.Sleeps
}
