package changepoint

import (
	"math"
	"testing"

	"smartbadge/internal/stats"
)

// appGrids are the detector grids of the MP3 and MPEG applications
// (experiments.MP3App and MPEGApp: arrival, then service).
var appGrids = []struct {
	name   string
	lo, hi float64
	nRates int
}{
	{"mp3-arrival", 6, 44, 8},
	{"mp3-service", 60, 150, 6},
	{"mpeg-arrival", 8, 34, 8},
	{"mpeg-service", 34, 80, 6},
}

// screenTally counts what the screen did over a stream.
type screenTally struct{ checks, cleared int }

// observeExact is Observe with the exact scan run at every due check, the
// screen's verdict checked against it instead of trusted. At every check it
// requires each candidate's screened bound to match the exact statistic
// within the slack, and a clear screen to imply that the exact scan finds no
// candidate above its threshold.
func observeExact(t *testing.T, d *Detector, x float64, tally *screenTally) (Detection, bool) {
	t.Helper()
	if det, ok := d.advance(x); ok || !d.checkDue() {
		return det, ok
	}
	clear := d.screenClear()
	sufs := d.suffixSums(d.window.Len())
	for j, c := range d.cands {
		exact, _ := likelihoodMaxFromSuffixes(sufs, c.logRatio, c.delta)
		s, slack := d.bound(j)
		if math.Abs(s-exact) > slack {
			t.Fatalf("sample %d, %v -> %v: screened bound %v, exact statistic %v (|Δ| %g > slack %g)",
				d.observed, d.current, c.rate, s, exact, math.Abs(s-exact), slack)
		}
	}
	best, found := d.scan()
	tally.checks++
	if clear {
		tally.cleared++
		if found {
			t.Fatalf("sample %d: screen cleared a check on which the exact scan detects %+v", d.observed, best)
		}
	}
	if !found {
		return Detection{}, false
	}
	return d.adopt(best), true
}

// runLockstep feeds one stream to a production detector and to an
// exact-every-check detector built the same way, and requires identical
// detection sequences, every field compared with ==.
func runLockstep(t *testing.T, cfg Config, th *Thresholds, initial float64, stream []float64) (dets []Detection, tally screenTally) {
	t.Helper()
	screened, err := NewDetector(cfg, th, initial)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := NewDetector(cfg, th, initial)
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range stream {
		got, gotOK := screened.Observe(x)
		want, wantOK := observeExact(t, exact, x, &tally)
		if gotOK != wantOK || got != want {
			t.Fatalf("sample %d: screened detector returned (%+v, %v), exact scan (%+v, %v)", i, got, gotOK, want, wantOK)
		}
		if gotOK {
			dets = append(dets, got)
		}
	}
	return dets, tally
}

// gridThresholds characterises a grid cheaply: the soundness property holds
// for any threshold table, so the null sample need not be large.
func gridThresholds(t testing.TB, lo, hi float64, n int) (Config, *Thresholds) {
	t.Helper()
	rates, err := GeometricRates(lo, hi, n)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(rates)
	cfg.CharacterisationWindows = 400
	th, err := Characterise(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return cfg, th
}

// TestScreenMatchesExactScanOnRateSwitches drives seeded streams that switch
// among grid and off-grid rates on every application grid. Short segments
// make the next change land while the window is still refilling after a
// detection or a refinement.
func TestScreenMatchesExactScanOnRateSwitches(t *testing.T) {
	for gi, g := range appGrids {
		cfg, th := gridThresholds(t, g.lo, g.hi, g.nRates)
		var detections, refined int
		var tally screenTally
		for seed := uint64(0); seed < 6; seed++ {
			rng := stats.NewRNG(1000*uint64(gi) + seed)
			var stream []float64
			for len(stream) < 15000 {
				rate := cfg.Rates[rng.Intn(len(cfg.Rates))]
				if rng.Intn(3) == 0 { // off grid, log-uniform over the grid's span
					rate = g.lo * math.Pow(g.hi/g.lo, rng.Float64())
				}
				seg := 5 + rng.Intn(300)
				for i := 0; i < seg; i++ {
					stream = append(stream, rng.Exp(rate))
				}
			}
			dets, tl := runLockstep(t, cfg, th, cfg.Rates[rng.Intn(len(cfg.Rates))], stream)
			detections += len(dets)
			for _, det := range dets {
				if det.Refined {
					refined++
				}
			}
			tally.checks += tl.checks
			tally.cleared += tl.cleared
		}
		if refined == 0 || refined == detections || tally.cleared == 0 || tally.cleared == tally.checks {
			t.Errorf("%s: vacuous run: %d detections (%d refined), %d of %d checks cleared",
				g.name, detections, refined, tally.cleared, tally.checks)
		}
		t.Logf("%s: %d detections (%d refined), %d of %d checks cleared by the screen",
			g.name, detections, refined, tally.cleared, tally.checks)
	}
}

// TestScreenMatchesExactScanOnLongStationaryRun feeds 200k samples at the
// current rate without a single reset, so the stream prefix — and with it
// every term of the screened bound — grows to the largest magnitudes the
// detector sees, and then a real rate change, whose detection takes the
// checks through the threshold at those magnitudes. Thresholds are raised
// above the largest null statistic of this stream so no false alarm trims
// the window early.
func TestScreenMatchesExactScanOnLongStationaryRun(t *testing.T) {
	cfg, th := gridThresholds(t, 6, 44, 8)
	snap := th.Snapshot()
	for i := range snap.Values {
		snap.Values[i] += 6
	}
	raised, err := RestoreThresholds(snap)
	if err != nil {
		t.Fatal(err)
	}
	const stationary = 200000
	rng := stats.NewRNG(17)
	stream := make([]float64, 0, stationary+500)
	for len(stream) < stationary {
		stream = append(stream, rng.Exp(cfg.Rates[3]))
	}
	for len(stream) < cap(stream) {
		stream = append(stream, rng.Exp(cfg.Rates[6]))
	}
	dets, tally := runLockstep(t, cfg, raised, cfg.Rates[3], stream)
	if len(dets) == 0 || dets[0].SampleIndex <= stationary {
		t.Fatalf("detections %+v: want none before sample %d and one after the change", dets, stationary)
	}
	if tally.cleared == tally.checks {
		t.Errorf("all %d checks cleared: none came near a threshold", tally.checks)
	}
	t.Logf("%d of %d checks cleared by the screen", tally.cleared, tally.checks)
}

// TestScreenMatchesExactScanOnDegenerateStreams covers streams whose
// statistics tie across change points: a constant stream exactly at each
// grid rate's mean, and constant samples at the log-midpoint of each pair of
// adjacent grid rates, started from the bottom of the grid so detections,
// MLE snaps between two equidistant rates and refinements all happen.
func TestScreenMatchesExactScanOnDegenerateStreams(t *testing.T) {
	for _, g := range appGrids {
		cfg, th := gridThresholds(t, g.lo, g.hi, g.nRates)
		constant := func(x float64, n int) []float64 {
			s := make([]float64, n)
			for i := range s {
				s[i] = x
			}
			return s
		}
		for _, r := range cfg.Rates {
			if dets, _ := runLockstep(t, cfg, th, r, constant(1/r, 2000)); len(dets) != 0 {
				t.Errorf("%s: constant stream at the mean of %v made %d detections", g.name, r, len(dets))
			}
		}
		refined := 0
		for i := 0; i+1 < len(cfg.Rates); i++ {
			mid := math.Sqrt(cfg.Rates[i] * cfg.Rates[i+1])
			dets, _ := runLockstep(t, cfg, th, cfg.Rates[0], constant(1/mid, 2000))
			for _, det := range dets {
				if det.Refined {
					refined++
				}
			}
		}
		if refined == 0 {
			t.Errorf("%s: no midpoint stream reached a refinement", g.name)
		}
	}
}

// TestNewDetectorRejectsForeignGrid is the regression test for thresholds
// characterised on a different rate grid with the same window size: the
// detector used to accept them and then panic at the first check. It must
// refuse them at construction instead.
func TestNewDetectorRejectsForeignGrid(t *testing.T) {
	_, foreign := gridThresholds(t, 10, 40, 4)
	cfg, own := gridThresholds(t, 6, 44, 8)
	if _, err := NewDetector(cfg, foreign, cfg.Rates[0]); err == nil {
		t.Fatal("NewDetector accepted thresholds characterised for another rate grid")
	}
	if _, err := NewDetector(cfg, own, cfg.Rates[0]); err != nil {
		t.Fatalf("NewDetector rejected thresholds for its own grid: %v", err)
	}
}

// BenchmarkDetectorObserve measures Observe per sample on the MP3 arrival
// grid over a stream that switches rate every 400 samples, so screened
// checks, exact scans, detections and refinements all contribute.
func BenchmarkDetectorObserve(b *testing.B) {
	cfg, th := gridThresholds(b, 6, 44, 8)
	rates := cfg.Rates
	rng := stats.NewRNG(3)
	stream := make([]float64, 1<<16)
	for i := range stream {
		stream[i] = rng.Exp(rates[(i/400)%len(rates)])
	}
	d, err := NewDetector(cfg, th, rates[0])
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, observeSink = d.Observe(stream[i&(len(stream)-1)])
	}
}

var observeSink bool
