package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"smartbadge/internal/experiments"
)

// smallConfig keeps fleet tests affordable: mp3-only badges decode a short
// clip sequence; the full default mix is exercised once in
// TestDefaultMixCoversAllAxes.
func smallConfig(n, workers int) Config {
	return Config{
		Badges:   n,
		Seed:     7,
		Workers:  workers,
		Apps:     []string{"mp3"},
		Policies: []experiments.PolicyKind{experiments.ExpAvg},
		DPMs:     []string{"none"},
	}
}

// TestWorkerInvariance is the batch determinism contract: the full report —
// every per-badge result and every aggregate — must be bit-identical for
// 1, 4 and 16 workers, so shard assignment is unobservable.
func TestWorkerInvariance(t *testing.T) {
	base, err := RunCtx(context.Background(), smallConfig(6, 1))
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{4, 16} {
		got, err := RunCtx(context.Background(), smallConfig(6, w))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, base) {
			t.Errorf("report with %d workers diverged from 1 worker:\n%+v\nvs\n%+v", w, got.Agg, base.Agg)
		}
	}
}

// TestBadgeResultsIndependentOfBatchSize verifies each badge is a pure
// function of (Seed, index): badge i of an N-badge batch equals badge i of a
// larger batch, so growing a fleet never perturbs existing badges.
func TestBadgeResultsIndependentOfBatchSize(t *testing.T) {
	small, err := RunCtx(context.Background(), smallConfig(3, 2))
	if err != nil {
		t.Fatal(err)
	}
	large, err := RunCtx(context.Background(), smallConfig(6, 3))
	if err != nil {
		t.Fatal(err)
	}
	for i := range small.Badges {
		if !reflect.DeepEqual(small.Badges[i], large.Badges[i]) {
			t.Errorf("badge %d changed when the batch grew:\n%+v\nvs\n%+v",
				i, small.Badges[i], large.Badges[i])
		}
	}
}

// TestSpecDerivation pins the mixed-radix index decomposition: app cycles
// fastest, then policy, then DPM.
func TestSpecDerivation(t *testing.T) {
	cfg := Config{
		Badges:   100,
		Apps:     []string{"mp3", "mpeg"},
		Policies: []experiments.PolicyKind{experiments.ChangePoint, experiments.ExpAvg},
		DPMs:     []string{"none", "renewal"},
	}
	if err := cfg.normalise(); err != nil {
		t.Fatal(err)
	}
	want := []Spec{
		{0, "mp3", experiments.ChangePoint, "none"},
		{1, "mpeg", experiments.ChangePoint, "none"},
		{2, "mp3", experiments.ExpAvg, "none"},
		{3, "mpeg", experiments.ExpAvg, "none"},
		{4, "mp3", experiments.ChangePoint, "renewal"},
		{7, "mpeg", experiments.ExpAvg, "renewal"},
		{8, "mp3", experiments.ChangePoint, "none"}, // wraps around
	}
	for _, w := range want {
		if got := cfg.SpecFor(w.Index); got != w {
			t.Errorf("SpecFor(%d) = %+v, want %+v", w.Index, got, w)
		}
	}
}

// TestDefaultMixCoversAllAxes runs one full default cycle (3 apps × 2
// policies × 2 DPMs = 12 badges) and checks every axis value appears and
// every badge simulated work.
func TestDefaultMixCoversAllAxes(t *testing.T) {
	if testing.Short() {
		t.Skip("full heterogeneous mix is slow")
	}
	rep, err := RunCtx(context.Background(), Config{Badges: 12, Seed: 3, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	apps := map[string]int{}
	dpms := map[string]int{}
	for _, b := range rep.Badges {
		apps[b.App]++
		dpms[b.DPM]++
		if b.EnergyJ <= 0 || b.SimTimeS <= 0 || b.FramesDecoded == 0 {
			t.Errorf("badge %d produced empty run: %+v", b.Index, b)
		}
		if b.MeanDelayS <= 0 {
			t.Errorf("badge %d has non-positive mean delay", b.Index)
		}
	}
	for _, a := range DefaultApps() {
		if apps[a] != 4 {
			t.Errorf("app %q ran %d times, want 4", a, apps[a])
		}
	}
	for _, d := range DefaultDPMs() {
		if dpms[d] != 6 {
			t.Errorf("DPM %q ran %d times, want 6", d, dpms[d])
		}
	}
	if rep.Agg.Runs != 12 || rep.Agg.TotalEnergyJ <= 0 {
		t.Errorf("bad aggregate: %+v", rep.Agg)
	}
	if rep.Agg.EnergyP50J > rep.Agg.EnergyP90J || rep.Agg.EnergyP90J > rep.Agg.EnergyP99J {
		t.Errorf("energy percentiles not monotone: %+v", rep.Agg)
	}
}

// TestSpecForSelfNormalises is the regression for the exported-method
// divide-by-zero: SpecFor on a Config whose axis slices are still empty
// (normalise has not run) must derive the same specs the defaults would,
// instead of panicking.
func TestSpecForSelfNormalises(t *testing.T) {
	raw := Config{Badges: 12, Seed: 3}
	norm := Config{Badges: 12, Seed: 3}
	if err := norm.normalise(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		got := raw.SpecFor(i) // used to panic: index out of range / divide by zero
		if want := norm.SpecFor(i); got != want {
			t.Errorf("SpecFor(%d) on raw config = %+v, want normalised %+v", i, got, want)
		}
	}
	// Partially filled axes keep their values and only the empty ones default.
	partial := Config{Badges: 4, Apps: []string{"mpeg"}}
	if got := partial.SpecFor(0); got.App != "mpeg" || got.Policy != DefaultPolicies()[0] || got.DPM != DefaultDPMs()[0] {
		t.Errorf("partial SpecFor(0) = %+v", got)
	}
}

// TestAggregateRejectsNonFinite is the regression for the NaN percentile
// hazard: sort.Float64s does not specify where NaN lands, so aggregation
// must fail loudly on NaN/Inf badge metrics rather than silently break the
// bit-identical-for-any-worker-count guarantee.
func TestAggregateRejectsNonFinite(t *testing.T) {
	good := func(i int) BadgeResult {
		return BadgeResult{Spec: Spec{Index: i, App: "mp3", DPM: "none"}, EnergyJ: float64(i + 1), MeanDelayS: 0.01}
	}
	results := []BadgeResult{good(0), good(1), good(2)}
	if _, err := aggregate(results); err != nil {
		t.Fatalf("finite results rejected: %v", err)
	}
	for name, poison := range map[string]BadgeResult{
		"NaN energy":  {Spec: Spec{Index: 1}, EnergyJ: math.NaN(), MeanDelayS: 0.01},
		"+Inf energy": {Spec: Spec{Index: 1}, EnergyJ: math.Inf(1), MeanDelayS: 0.01},
		"NaN delay":   {Spec: Spec{Index: 1}, EnergyJ: 1, MeanDelayS: math.NaN()},
		"-Inf delay":  {Spec: Spec{Index: 1}, EnergyJ: 1, MeanDelayS: math.Inf(-1)},
	} {
		bad := []BadgeResult{good(0), poison, good(2)}
		if _, err := aggregate(bad); err == nil {
			t.Errorf("%s: accepted", name)
		} else if !strings.Contains(err.Error(), "badge 1") {
			t.Errorf("%s: error %q does not name the offending badge", name, err)
		}
	}
}

// TestRunCtxPreCancelled: a dead context aborts before any badge simulates.
func TestRunCtxPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep, err := RunCtx(ctx, smallConfig(8, 2))
	if rep != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("rep=%v err=%v, want nil + context.Canceled", rep, err)
	}
}

// TestRunCtxCancelsBetweenBadges cancels while the batch is running and
// asserts the run aborts early with the context error surfaced and never
// returns a partial report. The shard loops poll ctx between badges, so the
// abort latency is one in-flight badge, not the remaining batch.
func TestRunCtxCancelsBetweenBadges(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	// 64 badges take well over 10 ms on any hardware, so the cancellation
	// always lands mid-batch.
	rep, err := RunCtx(ctx, smallConfig(64, 2))
	if rep != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("rep=%v err=%v, want nil + context.Canceled", rep, err)
	}
}

// cancellingJournal cancels the run on its first Append and counts every
// Append, i.e. every badge that completed.
type cancellingJournal struct {
	cancel  context.CancelFunc
	appends atomic.Int32
}

func (j *cancellingJournal) Get(int) (json.RawMessage, bool) { return nil, false }

func (j *cancellingJournal) Append(int, json.RawMessage) error {
	j.appends.Add(1)
	j.cancel()
	return nil
}

// TestRunCtxStopsWithinOneBadgePerShard pins where a cancellation lands:
// each shard finishes the badge it is simulating and starts no other, so
// at most one badge per worker completes once the first one has cancelled
// the run. A shard loop that stopped polling ctx would finish all 64.
func TestRunCtxStopsWithinOneBadgePerShard(t *testing.T) {
	for _, w := range []int{1, 2, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		j := &cancellingJournal{cancel: cancel}
		cfg := smallConfig(64, w)
		cfg.Journal = j
		rep, err := RunCtx(ctx, cfg)
		cancel()
		if rep != nil || !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: rep=%v err=%v, want nil + context.Canceled", w, rep, err)
		}
		if n := j.appends.Load(); n > int32(w) {
			t.Errorf("workers=%d: %d badges completed, want at most one per worker", w, n)
		}
	}
}

// TestConfigValidation rejects malformed batch configs.
func TestConfigValidation(t *testing.T) {
	for name, cfg := range map[string]Config{
		"zero badges": {},
		"bad app":     {Badges: 1, Apps: []string{"doom"}},
		"bad dpm":     {Badges: 1, DPMs: []string{"psychic"}},
	} {
		if _, err := RunCtx(context.Background(), cfg); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestPercentileNearestRank pins the percentile definition.
func TestPercentileNearestRank(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	cases := []struct {
		p    float64
		want float64
	}{{0.50, 5}, {0.90, 9}, {0.99, 10}, {1.0, 10}}
	for _, c := range cases {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile(nil) = %v, want 0", got)
	}
	if got := percentile([]float64{42}, 0.01); got != 42 {
		t.Errorf("percentile(single, 0.01) = %v, want 42", got)
	}
}
