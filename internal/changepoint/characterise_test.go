package changepoint

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"smartbadge/internal/obs"
	"smartbadge/internal/stats"
)

// appGridConfigs returns the default configs of the five distinct
// application grids: appGrids plus the mixed scenario's service grid
// (experiments.MixedApp; its arrival grid is MP3's).
func appGridConfigs(t *testing.T) []Config {
	t.Helper()
	var cfgs []Config
	add := func(lo, hi float64, n int) {
		rates, err := GeometricRates(lo, hi, n)
		if err != nil {
			t.Fatal(err)
		}
		cfgs = append(cfgs, DefaultConfig(rates))
	}
	for _, g := range appGrids {
		add(g.lo, g.hi, g.nRates)
	}
	add(34, 150, 8)
	return cfgs
}

// TestJointCharacterisationMatchesReference is the joint pass's acceptance
// criterion: every table it returns is bit for bit the per-ratio oracle's,
// and so is every histogram, down to the exact mean of its statistics, at
// several worker counts. The configs are the five application grids,
// Figure 10's grid and an application grid under another seed, which must
// run in a pass of its own.
func TestJointCharacterisationMatchesReference(t *testing.T) {
	cfgs := appGridConfigs(t)
	cfgs = append(cfgs, DefaultConfig([]float64{10, 20, 40, 60}))
	other := DefaultConfig(cfgs[0].Rates)
	other.Seed = 7
	cfgs = append(cfgs, other)
	want := make([]ThresholdSet, len(cfgs))
	wantHists := make([]map[float64]*stats.Histogram, len(cfgs))
	for i, cfg := range cfgs {
		th, hists, err := referenceCharacterise(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want[i], wantHists[i] = th.Snapshot(), hists
	}
	for _, workers := range []int{1, 2, 3} {
		joint := make([]Config, len(cfgs))
		for i, cfg := range cfgs {
			cfg.Workers = workers
			joint[i] = cfg
		}
		grids, err := characterise(joint)
		if err != nil {
			t.Fatal(err)
		}
		for i, g := range grids {
			if got := g.thresholds().Snapshot(); !reflect.DeepEqual(got, want[i]) {
				t.Errorf("Workers=%d, grid %v: joint thresholds differ from the reference\n got %v\nwant %v",
					workers, cfgs[i].Rates, got.Values, want[i].Values)
			}
			for j, ratio := range g.ratios {
				h, w := g.hists[j], wantHists[i][ratio]
				if !reflect.DeepEqual(h.Bins(), w.Bins()) || h.UnderflowCount() != w.UnderflowCount() ||
					h.OverflowCount() != w.OverflowCount() || math.Float64bits(h.Mean()) != math.Float64bits(w.Mean()) {
					t.Errorf("Workers=%d, grid %v, ratio %v: joint histogram differs from the reference (mean %v vs %v)",
						workers, cfgs[i].Rates, ratio, h.Mean(), w.Mean())
				}
			}
		}
	}
}

// characterisationCounts pins the characterisation work, as windows drawn,
// windows scored and ratios characterised. A rise fails; a fall must update
// the table.
var characterisationCounts = map[string][3]float64{
	"five app grids, joint":  {56_000, 248_000, 62},
	"MP3 arrival grid alone": {56_000, 56_000, 14},
}

func TestCharacterisationWorkCounts(t *testing.T) {
	grids := appGridConfigs(t)
	calls := map[string][]Config{
		"five app grids, joint":  grids,
		"MP3 arrival grid alone": grids[:1],
	}
	for name, want := range characterisationCounts {
		for _, workers := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/workers=%d", name, workers), func(t *testing.T) {
				reg := obs.NewRegistry()
				o := obs.New(reg, nil)
				cfgs := make([]Config, len(calls[name]))
				for i, cfg := range calls[name] {
					cfg.Workers, cfg.Obs = workers, o
					cfgs[i] = cfg
				}
				if _, err := Characterise(cfgs...); err != nil {
					t.Fatal(err)
				}
				c := reg.Snapshot().Counters
				got := [3]float64{c["changepoint.characterise.draws"], c["changepoint.characterise.windows"], c["changepoint.characterise.ratios"]}
				if got != want {
					t.Errorf("draws, windows, ratios = %v, want %v", got, want)
				}
			})
		}
	}
}
