// Package fleet runs batches of heterogeneous badge simulations — the
// fleet-scale experiment layer. A batch of N badges is a pure function of
// (Config, N): badge i's workload mix, policy and DPM are derived from the
// index by cycling through the configured axes, and its random stream is
// stats.RNG.SplitAt(i) off the batch seed, so every badge is reproducible in
// isolation and the batch result is bit-identical for any worker count.
//
// Execution is sharded, not work-stolen: worker w of W simulates badges
// w, w+W, w+2W, … and owns one sim.Scratch recycled across its runs (energy
// accumulators and power vectors, the simulator's per-run slices). Results
// land in an index-addressed slice and aggregates are folded serially
// afterwards, which is what makes the report independent of scheduling and
// of W.
//
// fleet is part of the determinism contract (see
// internal/analysis/detcheck): no wall clock, no ambient math/rand, no
// map-order dependence. Throughput measurement (runs/sec) therefore lives in
// cmd/sweep, outside the deterministic core.
package fleet

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"smartbadge/internal/device"
	"smartbadge/internal/dpm"
	"smartbadge/internal/experiments"
	"smartbadge/internal/parallel"
	"smartbadge/internal/sim"
	"smartbadge/internal/stats"
	"smartbadge/internal/workload"
)

// Config describes a batch. Zero values for the axis slices select the
// default heterogeneous mix.
type Config struct {
	// Badges is the number of simulations to run. Required.
	Badges int
	// Seed is the batch master seed; badge i derives its stream with
	// SplitAt(i), so the same (Seed, i) pair reproduces the same badge
	// regardless of Badges or Workers.
	Seed uint64
	// Workers caps the worker pool; <= 0 selects GOMAXPROCS. The report is
	// bit-identical for every value.
	Workers int
	// Journal, when non-nil, checkpoints the run so a resumed batch skips
	// badges already journaled (see RunCtx). Like Workers, it never changes
	// the report.
	Journal Journal
	// Apps cycles the workload mix across badges. Valid entries: "mp3",
	// "mpeg", "mixed". Default: all three.
	Apps []string
	// Policies cycles the DVS policy axis. Default: ChangePoint and ExpAvg.
	Policies []experiments.PolicyKind
	// DPMs cycles the power-management axis. Valid entries: "none",
	// "renewal". Default: both.
	DPMs []string
}

// DefaultApps is the default workload axis.
func DefaultApps() []string { return []string{"mp3", "mpeg", "mixed"} }

// DefaultPolicies is the default DVS-policy axis.
func DefaultPolicies() []experiments.PolicyKind {
	return []experiments.PolicyKind{experiments.ChangePoint, experiments.ExpAvg}
}

// DefaultDPMs is the default power-management axis.
func DefaultDPMs() []string { return []string{"none", "renewal"} }

func (c *Config) normalise() error {
	if c.Badges <= 0 {
		return fmt.Errorf("fleet: Badges must be positive, got %d", c.Badges)
	}
	if len(c.Apps) == 0 {
		c.Apps = DefaultApps()
	}
	if len(c.Policies) == 0 {
		c.Policies = DefaultPolicies()
	}
	if len(c.DPMs) == 0 {
		c.DPMs = DefaultDPMs()
	}
	for _, a := range c.Apps {
		if a != "mp3" && a != "mpeg" && a != "mixed" {
			return fmt.Errorf("fleet: unknown app %q (want mp3, mpeg or mixed)", a)
		}
	}
	for _, d := range c.DPMs {
		if d != "none" && d != "renewal" {
			return fmt.Errorf("fleet: unknown DPM %q (want none or renewal)", d)
		}
	}
	return nil
}

// Validate checks cfg without running it and returns the normalised copy
// (defaults filled in). Request-scoped callers — the serving daemon — use it
// to turn config typos into client errors before any admission or engine
// work happens.
func Validate(cfg Config) (Config, error) {
	if err := cfg.normalise(); err != nil {
		return Config{}, err
	}
	return cfg, nil
}

// Hash returns the canonical content hash of everything that determines
// the batch result: Badges, Seed and the normalised axes. Workers and
// Journal are deliberately excluded — the determinism contract makes the
// report independent of them, so a checkpoint taken at -j 4 resumes
// correctly at -j 16. The hash keys checkpoint directories
// (internal/ckpt), so two configs hash equal exactly when their reports
// are byte-identical.
func (c Config) Hash() (string, error) {
	if err := c.normalise(); err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString("fleet-config-v1\n")
	b.WriteString("badges=" + strconv.Itoa(c.Badges) + "\n")
	b.WriteString("seed=" + strconv.FormatUint(c.Seed, 10) + "\n")
	b.WriteString("apps=" + strings.Join(c.Apps, ",") + "\n")
	pols := make([]string, len(c.Policies))
	for i, p := range c.Policies {
		pols[i] = strconv.Itoa(int(p))
	}
	b.WriteString("policies=" + strings.Join(pols, ",") + "\n")
	b.WriteString("dpms=" + strings.Join(c.DPMs, ",") + "\n")
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:]), nil
}

// Spec is the derived configuration of one badge: a pure function of the
// batch config and the badge index.
type Spec struct {
	Index  int
	App    string
	Policy experiments.PolicyKind
	DPM    string
}

// SpecFor derives badge i's configuration by mixed-radix decomposition of
// the index over the three axes, so consecutive badges differ in the fastest
// axis (app) first. SpecFor is self-normalising: an axis slice that is still
// empty (normalise has not run yet) falls back to the same default it would
// be filled with, instead of dividing by zero, so the derivation is safe on
// any Config and agrees with what RunCtx will execute.
func (c *Config) SpecFor(i int) Spec {
	apps, pols, dpms := c.Apps, c.Policies, c.DPMs
	if len(apps) == 0 {
		apps = DefaultApps()
	}
	if len(pols) == 0 {
		pols = DefaultPolicies()
	}
	if len(dpms) == 0 {
		dpms = DefaultDPMs()
	}
	nA, nP := len(apps), len(pols)
	return Spec{
		Index:  i,
		App:    apps[i%nA],
		Policy: pols[(i/nA)%nP],
		DPM:    dpms[(i/(nA*nP))%len(dpms)],
	}
}

// BadgeResult is the per-badge outcome: the spec that produced it plus the
// headline metrics of its run.
type BadgeResult struct {
	Spec
	EnergyJ       float64
	MeanDelayS    float64
	SimTimeS      float64
	AvgPowerW     float64
	FramesDecoded int
	Sleeps        int
}

// Aggregate summarises a batch with streaming totals and nearest-rank
// percentiles over the per-badge energy and mean-delay distributions.
type Aggregate struct {
	Runs         int
	TotalEnergyJ float64
	TotalSimS    float64
	EnergyP50J   float64
	EnergyP90J   float64
	EnergyP99J   float64
	DelayP50S    float64
	DelayP90S    float64
	DelayP99S    float64
}

// BadgeError is the failure of one badge: the index and derived spec that
// identify it plus the cause (a runBadge error, or a recovered panic
// wrapped so the batch survives a crashing simulation). One bad badge
// never takes down the batch — it lands here and the report aggregates
// over the survivors.
type BadgeError struct {
	Index int
	Spec  Spec
	Cause error
}

func (e *BadgeError) Error() string {
	return fmt.Sprintf("fleet: badge %d (%s/%v/%s): %v", e.Index, e.Spec.App, e.Spec.Policy, e.Spec.DPM, e.Cause)
}

func (e *BadgeError) Unwrap() error { return e.Cause }

// Report is the full batch outcome. Badges holds the successful results in
// index order; Failed holds one BadgeError per failed badge, also in index
// order, so the report stays bit-identical for any worker count even when
// some badges fail. Agg summarises the survivors only.
type Report struct {
	Badges []BadgeResult
	Failed []*BadgeError
	Agg    Aggregate
}

// Journal is the checkpoint seam RunCtx writes through — the subset of
// *ckpt.Store the fleet needs. Implementations must be safe for
// concurrent Append from shard workers.
type Journal interface {
	// Get returns the stored payload for badge i, if one exists.
	Get(i int) (json.RawMessage, bool)
	// Append journals badge i's completed result. Failures degrade
	// checkpointing only; the fleet ignores them.
	Append(i int, data json.RawMessage) error
}

// RunCtx executes the batch and returns the index-ordered per-badge results
// plus aggregates. The report is bit-identical for any Workers value.
//
// Every shard checks ctx between badges, so a cancelled request aborts
// after the badge currently simulating finishes — not after the whole
// batch — and the returned error satisfies errors.Is(err, ctx.Err());
// cancellation never yields a partial report.
//
// With cfg.Journal set, badges already journaled are restored and the rest
// are appended as they finish. Because each badge is a pure function of
// (Config, index) and JSON round-trips float64 bits exactly, a resumed
// run's report is byte-identical to an uninterrupted one.
func RunCtx(ctx context.Context, cfg Config) (*Report, error) {
	if err := cfg.normalise(); err != nil {
		return nil, err
	}
	j := cfg.Journal
	n := cfg.Badges
	w := parallel.Workers(cfg.Workers)
	if w > n {
		w = n
	}
	results := make([]BadgeResult, n)
	fails := make([]*BadgeError, n)
	done := make([]bool, n)
	if j != nil {
		for i := 0; i < n; i++ {
			data, ok := j.Get(i)
			if !ok {
				continue
			}
			var r BadgeResult
			// A payload that does not parse back to this badge is treated
			// as absent: the badge is simply recomputed.
			if json.Unmarshal(data, &r) != nil || r.Index != i {
				continue
			}
			results[i] = r
			done[i] = true
		}
	}
	// One task per shard (not per badge): shard s owns badges s, s+w, …,
	// and a private Scratch recycled across them. parallel.ForEach with
	// n == workers runs each shard exactly once.
	err := parallel.ForEach(ctx, w, w, func(shard int) error {
		sc := sim.NewScratch()
		for i := shard; i < n; i += w {
			if err := ctx.Err(); err != nil {
				return err
			}
			if done[i] {
				continue
			}
			r, err := runBadgeRecover(&cfg, i, &sc)
			if err != nil {
				// Isolate the failure: record it in the index-addressed
				// slot and keep the shard going. Failed badges are never
				// journaled, so a resume retries them.
				fails[i] = &BadgeError{Index: i, Spec: cfg.SpecFor(i), Cause: err}
				continue
			}
			results[i] = r
			if j != nil {
				if data, merr := json.Marshal(r); merr == nil {
					j.Append(i, data) // best-effort; see Journal
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	ok := make([]BadgeResult, 0, n)
	failed := make([]*BadgeError, 0)
	for i := 0; i < n; i++ {
		if fails[i] != nil {
			failed = append(failed, fails[i])
		} else {
			ok = append(ok, results[i])
		}
	}
	if len(ok) == 0 {
		return nil, fmt.Errorf("fleet: all %d badges failed; first: %w", n, failed[0])
	}
	agg, err := aggregate(ok)
	if err != nil {
		return nil, err
	}
	return &Report{Badges: ok, Failed: failed, Agg: agg}, nil
}

// runBadgeFn is the per-badge execution seam: tests swap it to inject
// deterministic failures and panics without touching the simulator.
var runBadgeFn = runBadge

// runBadgeRecover runs one badge with panic isolation. A panicking
// simulation may leave the shard's scratch mid-run, so the scratch is
// replaced before the shard continues; error returns keep it (runBadge's
// error paths never abandon a simulation half-stepped).
func runBadgeRecover(cfg *Config, i int, sc **sim.Scratch) (r BadgeResult, err error) {
	defer func() {
		if p := recover(); p != nil {
			*sc = sim.NewScratch()
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	return runBadgeFn(cfg, i, *sc)
}

// runBadge simulates one badge on the given scratch.
func runBadge(cfg *Config, i int, sc *sim.Scratch) (BadgeResult, error) {
	spec := cfg.SpecFor(i)
	rng := stats.NewRNG(cfg.Seed).SplitAt(uint64(i))

	var (
		tr  *workload.Trace
		app experiments.App
		err error
	)
	switch spec.App {
	case "mp3":
		var clips []workload.Clip
		clips, err = workload.MP3Sequence("ACEFBD")
		if err == nil {
			tr, err = workload.Generate(rng, clips, workload.GenerateOptions{})
		}
		app = experiments.MP3App()
	case "mpeg":
		tr, err = workload.Generate(rng, workload.MPEGClips(), workload.GenerateOptions{})
		app = experiments.MPEGApp()
	case "mixed":
		tr, err = experiments.Table5Workload(rng.Uint64())
		app = experiments.MixedApp()
	}
	if err != nil {
		return BadgeResult{}, err
	}

	var pol dpm.Policy
	switch spec.DPM {
	case "none":
		pol = dpm.AlwaysOn{}
	case "renewal":
		costs := dpm.CostsForBadge(device.SmartBadge(), device.Standby)
		pol, err = dpm.NewRenewalTimeout(tr.IdleModel(), costs, device.Standby, 0)
		if err != nil {
			return BadgeResult{}, err
		}
	}

	res, err := experiments.RunPolicy(spec.Policy, app, tr, pol, func(c *sim.Config) {
		c.Scratch = sc
	})
	if err != nil {
		return BadgeResult{}, err
	}
	return BadgeResult{
		Spec:          spec,
		EnergyJ:       res.EnergyJ,
		MeanDelayS:    res.FrameDelay.Mean(),
		SimTimeS:      res.SimTime,
		AvgPowerW:     res.AvgPowerW,
		FramesDecoded: res.FramesDecoded,
		Sleeps:        res.Sleeps,
	}, nil
}

// aggregate folds the index-ordered results serially — worker-count
// independent by construction. Non-finite inputs are rejected before
// sorting: sort.Float64s leaves the position of NaN unspecified, so a single
// NaN badge metric would silently void the "bit-identical for any worker
// count" percentile guarantee (and Inf poisons the running totals), which is
// exactly the kind of corruption that must fail loudly instead.
func aggregate(results []BadgeResult) (Aggregate, error) {
	a := Aggregate{Runs: len(results)}
	energies := make([]float64, len(results))
	delays := make([]float64, len(results))
	for i, r := range results {
		if !finite(r.EnergyJ) || !finite(r.MeanDelayS) {
			return Aggregate{}, fmt.Errorf(
				"fleet: badge %d (%s/%s/%s) produced a non-finite metric (energy %v J, mean delay %v s); refusing to aggregate — NaN ordering under sort would make percentiles scheduling-dependent",
				r.Index, r.App, r.Policy, r.DPM, r.EnergyJ, r.MeanDelayS)
		}
		a.TotalEnergyJ += r.EnergyJ
		a.TotalSimS += r.SimTimeS
		energies[i] = r.EnergyJ
		delays[i] = r.MeanDelayS
	}
	sort.Float64s(energies)
	sort.Float64s(delays)
	a.EnergyP50J = percentile(energies, 0.50)
	a.EnergyP90J = percentile(energies, 0.90)
	a.EnergyP99J = percentile(energies, 0.99)
	a.DelayP50S = percentile(delays, 0.50)
	a.DelayP90S = percentile(delays, 0.90)
	a.DelayP99S = percentile(delays, 0.99)
	return a, nil
}

// finite reports whether x is neither NaN nor ±Inf.
func finite(x float64) bool {
	return !math.IsNaN(x) && !math.IsInf(x, 0)
}

// percentile is the nearest-rank percentile of an ascending-sorted slice.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}
