package sim

import (
	"reflect"
	"testing"

	"smartbadge/internal/device"
	"smartbadge/internal/dpm"
	"smartbadge/internal/perfmodel"
	"smartbadge/internal/sa1100"
	"smartbadge/internal/workload"
)

// mp3Config assembles a fresh full config (trace, controller, DPM) for one
// seeded MP3 run. Every call rebuilds the controller and policy so that two
// configs never share mutable state.
func mp3Config(t *testing.T, seed uint64) Config {
	t.Helper()
	badge := device.SmartBadge()
	costs := dpm.CostsForBadge(badge, device.Standby)
	pol, err := dpm.NewFixedTimeout(costs.BreakEven(), device.Standby)
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Badge:      badge,
		Proc:       sa1100.Default(),
		Trace:      mp3Trace(t, seed, "ACEFBD"),
		Controller: idealController(t, perfmodel.MP3Curve(), 0.15, false),
		DPM:        pol,
		Kind:       workload.MP3,
	}
}

// TestScratchRunsBitIdentical is the correctness contract for the fleet
// engine's per-worker state reuse: a run through a recycled Scratch — even one
// warmed by runs of other seeds — must produce a Result bit-identical to a
// run that allocated everything fresh.
//
// The scratch is first warmed on a burst whose backlog is far deeper than any
// run after it needs, so every recycled FIFO arrives with spare capacity, a
// dead prefix and a stale peak that New must clear.
func TestScratchRunsBitIdentical(t *testing.T) {
	sc := NewScratch()
	deep, err := Run(Config{
		Badge:      device.SmartBadge(),
		Proc:       sa1100.Default(),
		Trace:      burstTrace(5, 1.0/40, 200, 300),
		Controller: idealController(t, perfmodel.MP3Curve(), 0.15, false),
		Kind:       workload.MP3,
		Scratch:    sc,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []uint64{21, 22, 23} {
		fresh, err := Run(mp3Config(t, seed))
		if err != nil {
			t.Fatal(err)
		}
		cfg := mp3Config(t, seed)
		cfg.Scratch = sc
		pooled, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(fresh, pooled) {
			t.Errorf("seed %d: pooled run diverged from fresh run:\nfresh  %+v\npooled %+v",
				seed, fresh, pooled)
		}
		if pooled.PeakQueue >= deep.PeakQueue {
			t.Errorf("seed %d: peak queue %d is not below the warm-up burst's %d; the recycled FIFO is no deeper than the run needs",
				seed, pooled.PeakQueue, deep.PeakQueue)
		}
	}
}

// TestScratchReusesBuffers verifies the scratch actually recycles: after one
// warm-up run, a pooled run must allocate strictly less than a fresh run of
// the same configuration.
func TestScratchReusesBuffers(t *testing.T) {
	sc := NewScratch()
	warm := mp3Config(t, 31)
	warm.Scratch = sc
	if _, err := Run(warm); err != nil {
		t.Fatal(err)
	}
	freshAllocs := testing.AllocsPerRun(2, func() {
		if _, err := Run(mp3Config(t, 31)); err != nil {
			t.Fatal(err)
		}
	})
	pooledAllocs := testing.AllocsPerRun(2, func() {
		cfg := mp3Config(t, 31)
		cfg.Scratch = sc
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
	})
	if pooledAllocs >= freshAllocs {
		t.Errorf("pooled run allocated %v times, fresh run %v — scratch recycled nothing",
			pooledAllocs, freshAllocs)
	}
}
