package experiments

import (
	"context"
	"math"
	"strings"
	"testing"

	"smartbadge/internal/faults"
	"smartbadge/internal/policy"
)

func TestGridClamp(t *testing.T) {
	if c := GridClamp(nil); c != (policy.RateClamp{}) {
		t.Errorf("empty grid clamp = %+v, want zero value", c)
	}
	c := GridClamp([]float64{10, 20, 40})
	if c.Lo != 5 || c.Hi != 80 {
		t.Errorf("clamp = %+v, want {5 80}", c)
	}
}

func TestResilienceTable(t *testing.T) {
	rows, err := ResilienceTable(context.Background(), 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	configs := ResilienceConfigs()
	wantScenarios := len(faults.Names()) // "none" + the catalogue
	if len(rows) != wantScenarios*len(configs) {
		t.Fatalf("rows = %d, want %d scenarios x %d configs", len(rows), wantScenarios, len(configs))
	}

	seen := map[string]ResilienceRow{}
	for _, r := range rows {
		seen[r.Scenario+"/"+r.Config] = r
		if r.EnergyKJ <= 0 {
			t.Errorf("%s/%s: energy %v", r.Scenario, r.Config, r.EnergyKJ)
		}
		if math.IsNaN(r.MissRate) || r.MissRate < 0 || r.MissRate > 1 {
			t.Errorf("%s/%s: miss rate %v", r.Scenario, r.Config, r.MissRate)
		}
		if r.Scenario == "none" {
			if r.RelEnergy != 1 {
				t.Errorf("%s/%s: fault-free RelEnergy = %v, want 1", r.Scenario, r.Config, r.RelEnergy)
			}
			if r.Trips != 0 || r.Drops != 0 {
				t.Errorf("%s/%s: fault-free row reports faults: %+v", r.Scenario, r.Config, r)
			}
		}
		if r.Config != "guarded" && (r.Trips != 0 || r.Vetoes != 0) {
			t.Errorf("%s/%s: unguarded config reports guard activity: %+v", r.Scenario, r.Config, r)
		}
	}
	for _, name := range faults.Names() {
		for _, cfg := range configs {
			if _, ok := seen[name+"/"+cfg]; !ok {
				t.Errorf("missing cell %s/%s", name, cfg)
			}
		}
	}

	// The acceptance criterion: in every scenario where max-performance alone
	// keeps the buffer bounded, the guarded configuration must end recovered —
	// bounded queue, finite recovery time, not stuck in safe mode.
	for _, name := range faults.Names() {
		maxRow := seen[name+"/max"]
		guarded := seen[name+"/guarded"]
		if maxRow.PeakQueue >= ResilienceBufferCap {
			continue // even the fallback overflows: recovery is not expected
		}
		if !guarded.Recovered {
			t.Errorf("%s/guarded: run ended still in safe mode", name)
		}
		if guarded.PeakQueue >= ResilienceBufferCap {
			t.Errorf("%s/guarded: queue hit the buffer cap (%d)", name, guarded.PeakQueue)
		}
		if math.IsInf(guarded.SafeModeS, 0) || math.IsNaN(guarded.SafeModeS) || guarded.SafeModeS < 0 {
			t.Errorf("%s/guarded: safe-mode time %v not finite", name, guarded.SafeModeS)
		}
	}

	// The faults must actually bite somewhere: at least one scenario trips
	// the guarded watchdog, and at least one perturbs energy.
	trips, perturbed := 0, 0
	for _, r := range rows {
		trips += r.Trips
		if r.Scenario != "none" && r.RelEnergy != 1 {
			perturbed++
		}
	}
	if trips == 0 {
		t.Error("no scenario tripped the watchdog — the table is not exercising it")
	}
	if perturbed == 0 {
		t.Error("no scenario changed energy relative to fault-free")
	}

	// Within a scenario every config faces the identical perturbed trace, so
	// injected drop counts (corruption) agree across configs.
	for _, name := range faults.Names() {
		g, b := seen[name+"/guarded"], seen[name+"/bare"]
		// Drops include buffer overflows, which differ by config; but when
		// nothing overflowed (queue below cap for both), drops are purely the
		// injected corruption and must match.
		if g.PeakQueue < ResilienceBufferCap && b.PeakQueue < ResilienceBufferCap && g.Drops != b.Drops {
			t.Errorf("%s: injected drops differ across configs (%d vs %d)", name, g.Drops, b.Drops)
		}
	}

	out := FormatResilienceTable(rows)
	for _, want := range append([]string{"Scenario", "Config", "Recovered"}, faults.Names()...) {
		if !strings.Contains(out, want) {
			t.Errorf("formatted table missing %q", want)
		}
	}
}

// TestResilienceTableWorkerInvariance is the determinism acceptance check:
// the table is bit-identical for any -j worker count.
func TestResilienceTableWorkerInvariance(t *testing.T) {
	serial, err := ResilienceTable(context.Background(), 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	fanned, err := ResilienceTable(context.Background(), 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != len(fanned) {
		t.Fatalf("row counts differ: %d vs %d", len(serial), len(fanned))
	}
	for i := range serial {
		if serial[i] != fanned[i] {
			t.Errorf("row %d differs across worker counts:\n  -j1: %+v\n  -j8: %+v", i, serial[i], fanned[i])
		}
	}
}
