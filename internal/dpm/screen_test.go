package dpm_test

import (
	"fmt"
	"math"
	"testing"

	"smartbadge/internal/device"
	"smartbadge/internal/dpm"
	"smartbadge/internal/experiments"
	"smartbadge/internal/stats"
	"smartbadge/internal/workload"
)

// fleetIdleModel builds a fleet badge's renewal idle model the way the fleet
// engine does: the badge's stream split off the batch seed, the app's trace,
// and the idle model fitted to that trace.
func fleetIdleModel(tb testing.TB, app string, seed, badge uint64) stats.Distribution {
	tb.Helper()
	rng := stats.NewRNG(seed).SplitAt(badge)
	var (
		tr  *workload.Trace
		err error
	)
	switch app {
	case "mp3":
		var clips []workload.Clip
		clips, err = workload.MP3Sequence("ACEFBD")
		if err == nil {
			tr, err = workload.Generate(rng, clips, workload.GenerateOptions{})
		}
	case "mpeg":
		tr, err = workload.Generate(rng, workload.MPEGClips(), workload.GenerateOptions{})
	case "mixed":
		tr, err = experiments.Table5Workload(rng.Uint64())
	default:
		tb.Fatalf("unknown app %q", app)
	}
	if err != nil {
		tb.Fatal(err)
	}
	return tr.IdleModel()
}

func badgeCosts() dpm.Costs { return dpm.CostsForBadge(device.SmartBadge(), device.Standby) }

// checkScreen requires the screened OptimalTimeout to return the reference
// search's float exactly, and every grid point the screen skipped to have a
// reference energy strictly above the returned point's. wantScreen says
// whether d has a bracket, so that the screen must engage rather than fall
// back to evaluating every point. It returns how many points were evaluated
// exactly.
func checkScreen(t *testing.T, name string, d stats.Distribution, c dpm.Costs, wantScreen bool) int {
	t.Helper()
	got, want := dpm.OptimalTimeout(d, c), dpm.ReferenceOptimalTimeout(d, c)
	if got != want {
		t.Fatalf("%s (%v, %+v): OptimalTimeout = %v, reference %v", name, d, c, got, want)
	}
	grid, keep := dpm.ScreenTimeouts(d, c)
	if (keep != nil) != wantScreen {
		t.Fatalf("%s (%v): screen engaged = %v, want %v", name, d, keep != nil, wantScreen)
	}
	if keep == nil {
		return len(grid)
	}
	best := dpm.ReferenceExpectedEnergyPerIdle(d, c, got)
	if e := dpm.ExpectedEnergyPerIdle(d, c, got); e != best {
		t.Fatalf("%s (%v): energy at τ=%v is %v, reference %v", name, d, got, e, best)
	}
	kept := 0
	for i, tau := range grid {
		if keep[i] {
			kept++
			continue
		}
		if e := dpm.ReferenceExpectedEnergyPerIdle(d, c, tau); !(e > best) {
			t.Fatalf("%s (%v): skipped τ=%v has energy %v, not above the optimum's %v at τ=%v",
				name, d, tau, e, best, got)
		}
	}
	return kept
}

// TestScreenMatchesReferenceOnFleetModels runs the screen on the idle models
// the fleet fits: one exponential per gap-free trace (mp3, mpeg), and an
// exponential plus a Pareto tail for the gapped mixed trace.
func TestScreenMatchesReferenceOnFleetModels(t *testing.T) {
	c := badgeCosts()
	const seeds = 60
	for _, app := range []string{"mp3", "mpeg", "mixed"} {
		kept := 0
		for s := uint64(1); s <= seeds; s++ {
			d := fleetIdleModel(t, app, s, s%7)
			kept += checkScreen(t, fmt.Sprintf("%s seed %d", app, s), d, c, true)
		}
		t.Logf("%s: %.1f of 43 grid points evaluated exactly per fit", app, float64(kept)/seeds)
	}
}

func randomCosts(r *stats.RNG) dpm.Costs {
	idle := 0.1 + 3*r.Float64()
	sleep := 0.0 // a free sleep state is a valid corner
	if r.Float64() < 0.8 {
		sleep = idle * 0.5 * r.Float64()
	}
	return dpm.Costs{
		IdlePowerW:        idle,
		SleepPowerW:       sleep,
		TransitionEnergyJ: math.Pow(10, -3+3*r.Float64()),
		WakeLatencyS:      0.3 * r.Float64(),
	}
}

func randomExponential(r *stats.RNG) stats.Exponential {
	return stats.NewExponential(math.Pow(10, -1+4*r.Float64()))
}

// paretoShapes spans an infinite mean (0.5, 1), the α = 1 special case and
// its neighbourhood, light and heavy tails, and FitPareto's all-equal
// fallback (1e6, a step function).
var paretoShapes = []float64{0.5, 1, 1 + 1e-9, 1.5, 3.5, 1e6}

func randomPareto(r *stats.RNG) stats.Pareto {
	return stats.NewPareto(math.Pow(10, -3+3*r.Float64()), paretoShapes[r.Intn(len(paretoShapes))])
}

func TestScreenMatchesReferenceRandomized(t *testing.T) {
	families := []struct {
		name string
		draw func(r *stats.RNG) stats.Distribution
	}{
		{"exponential", func(r *stats.RNG) stats.Distribution { return randomExponential(r) }},
		{"pareto", func(r *stats.RNG) stats.Distribution { return randomPareto(r) }},
		{"shifted", func(r *stats.RNG) stats.Distribution {
			var base stats.Distribution = randomExponential(r)
			if r.Float64() < 0.5 {
				base = randomPareto(r)
			}
			return stats.Shifted{Offset: math.Pow(10, -3+3*r.Float64()), Base: base}
		}},
		{"mixture", func(r *stats.RNG) stats.Distribution {
			var tail stats.Distribution = randomPareto(r)
			if r.Float64() < 0.3 {
				tail = stats.Shifted{Offset: r.Float64(), Base: tail}
			}
			return stats.NewMixture(
				[]float64{math.Pow(10, 2+3*r.Float64()), 1 + 20*r.Float64()},
				[]stats.Distribution{randomExponential(r), tail})
		}},
	}
	for fi, f := range families {
		t.Run(f.name, func(t *testing.T) {
			r := stats.NewRNG(90).SplitAt(uint64(fi))
			for i := 0; i < 40; i++ {
				d := f.draw(r)
				checkScreen(t, fmt.Sprintf("case %d", i), d, randomCosts(r), true)
				checkScreen(t, fmt.Sprintf("case %d, badge costs", i), d, badgeCosts(), true)
			}
		})
	}
	// Every Pareto shape on a scale near the break-even time, where the
	// grid straddles the step of a large shape.
	be := badgeCosts().BreakEven()
	for _, shape := range paretoShapes {
		for _, k := range []float64{0.03, 0.5, 1, 1.1, 7} {
			checkScreen(t, fmt.Sprintf("shape %v scale %v·T_be", shape, k),
				stats.NewPareto(k*be, shape), badgeCosts(), true)
		}
	}
}

// opaque hides a distribution's type, so it has no closed form.
type opaque struct{ stats.Distribution }

func TestScreenFallsBackWithoutBracket(t *testing.T) {
	c := badgeCosts()
	r := stats.NewRNG(91)
	for i := 0; i < 5; i++ {
		checkScreen(t, "opaque exponential", opaque{randomExponential(r)}, c, false)
		checkScreen(t, "opaque pareto", opaque{randomPareto(r)}, randomCosts(r), false)
	}
	checkScreen(t, "mixture with a uniform", stats.NewMixture(
		[]float64{100, 3},
		[]stats.Distribution{stats.NewExponential(25), stats.NewUniform(0.5, 4)}), c, false)
	checkScreen(t, "negative offset", stats.Shifted{Offset: -0.01, Base: stats.NewExponential(30)}, c, false)
	// Costs that fail Validate but still have a positive break-even time.
	bad := dpm.Costs{IdlePowerW: 1, SleepPowerW: 2, TransitionEnergyJ: -0.5}
	checkScreen(t, "invalid costs", stats.NewExponential(10), bad, false)
}

var sinkTimeout float64

// BenchmarkOptimalTimeout times one renewal fit on a fleet idle model per
// app and reports how many grid points the screen evaluates exactly.
func BenchmarkOptimalTimeout(b *testing.B) {
	c := badgeCosts()
	for _, app := range []string{"mp3", "mpeg", "mixed"} {
		b.Run(app, func(b *testing.B) {
			d := fleetIdleModel(b, app, 1, 0)
			grid, keep := dpm.ScreenTimeouts(d, c)
			exact := len(grid)
			if keep != nil {
				exact = 0
				for _, k := range keep {
					if k {
						exact++
					}
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sinkTimeout = dpm.OptimalTimeout(d, c)
			}
			b.ReportMetric(float64(exact), "exact-evals/op")
		})
	}
}
