// Package changepoint implements the first contribution of the paper
// (Section 3.1): optimal detection of rate changes in exponential arrival and
// service processes via the maximum likelihood ratio, with off-line threshold
// characterisation by stochastic simulation and on-line sliding-window
// detection.
//
// The statistic. For a window holding the last m interarrival (or decoding)
// times x_1..x_m, the hypothesis "the rate changed from λo to λn after the
// k-th sample" is scored against "the rate is still λo" by the likelihood
// ratio of Equation 3, whose logarithm (Equation 4) is
//
//	ln P(k) = (m − k)·ln(λn/λo) − (λn − λo)·Σ_{j=k+1..m} x_j
//
// The detection statistic for a candidate new rate λn is max_k ln P(k); only
// the suffix sums of the window are needed.
//
// Screened checks. Index the samples since the window's prefix origin by p,
// let pre_p be the stream prefix before sample p, and N and P_N the sample
// count and stream total. For candidate λc, with Lc = ln(λc/λo) and
// δc = λc − λo, the suffix starting at p scores
//
//	ln P = N·Lc − δc·P_N + h_c(p),   h_c(p) = δc·pre_p − p·Lc
//
// so the detector keeps a sliding-window maximum of h_c for every candidate,
// block-decomposed (van Herk/Gil-Werman) over blocks of m samples: each
// sample writes one row of |Λ| values and folds it into the block's running
// maxima, each full block is turned into suffix maxima in one backward pass,
// and a check reads each candidate's window maximum as the larger of its
// running maximum and one suffix maximum. That is O(|Λ|) work per sample
// and per check, with no data-dependent loop, and the maxima are exact.
// Only when some bound comes within a rounding slack of its threshold —
// about 2 % of checks on the default fleet mix — does the check run the
// exact O(n·|Λ|) scan, which reads each suffix sum in O(1) from the window's
// compensated prefix ring (stats.Window.SuffixSum) and alone produces every
// reported Detection. The screen changes the cost of a check, never its
// result.
//
// Off-line characterisation. For each (λo, λn) pair from the predefined rate
// set Λ, windows are simulated under the null hypothesis (all m samples at
// rate λo), the statistic is accumulated into a histogram, and the
// confidence quantile (99.5 % in the paper) becomes the on-line threshold:
// a statistic above it occurs with probability ≤ 0.5 % when no change
// happened. Because the null distribution of ln P(k) depends on (λo, λn)
// only through the ratio λn/λo (λo·Σx is a Gamma(m−k, 1) pivot), thresholds
// are cached per ratio, which collapses a geometric rate grid to a handful
// of simulations at λo = 1. The i-th distinct ratio of a grid, in scan
// order, draws its null windows from RNG stream SplitAt(i) of the seed, so
// grids that share the seed, m and the window count draw the same windows
// for their i-th ratios. Characterise therefore takes several configs and
// draws each stream once: every window's suffix sums are accumulated once,
// newest sample first, and scored against the i-th ratio of every grid by
// the reference backward pass of Equation 4, so each table is bit for bit
// the one its config gets alone. The five application grids have 62 ratios
// but 14 streams between them. Histograms, never per-window statistics, are
// kept; a ratio whose histogram clips near the quantile re-draws only its
// own stream over a doubled span.
//
// On-line detection. Every k-th observation (the paper's check interval),
// the detector evaluates the statistic for every candidate λn ≠ λo and
// reports the candidate with the largest margin above its threshold, if any.
// After a detection the samples before the estimated change point are
// discarded and λo becomes λn.
package changepoint

import (
	"context"
	"fmt"
	"math"
	"sort"

	"smartbadge/internal/obs"
	"smartbadge/internal/parallel"
	"smartbadge/internal/stats"
)

// minWindow is the smallest number of buffered samples at which checks run.
// After a detection the pre-change samples are discarded, so the window is
// short for a while; evaluating the statistic on n < m samples against the
// m-sample threshold is conservative (the null statistic over a suffix subset
// is stochastically smaller), and it is what lets the detector settle within
// ~10 frames as in Figure 10 instead of waiting for a full window to refill.
// Config.Validate keeps WindowSize at or above it. A CheckInterval above it
// makes it inert: after the window is cleared, the first evaluation cannot
// happen before CheckInterval samples have accumulated anyway.
const minWindow = 10

// refineAfter schedules refinement passes every refineAfter samples
// following a detection, until WindowSize post-change samples have
// accumulated: the mean of the samples observed since the detection is
// re-snapped to the rate grid and adopted when it disagrees with the current
// rate. Detection fires on ~10 post-change samples, which is enough to
// notice *that* the rate changed but noisy for picking *which* neighbouring
// grid rate it changed to; refinement corrects an off-by-one grid pick
// without waiting for the slow threshold crossing between adjacent rates.
const refineAfter = 20

// Config parameterises both characterisation and on-line detection.
type Config struct {
	// Rates is the predefined candidate rate set Λ (events/second).
	// Must contain at least two distinct positive rates.
	Rates []float64
	// WindowSize is m, the number of recent samples considered (paper: 100).
	WindowSize int
	// CheckInterval is how many new samples arrive between statistic
	// evaluations (the paper's "check every k points"). 1 checks on every
	// sample.
	CheckInterval int
	// Confidence is the characterisation quantile (paper: 0.995).
	Confidence float64
	// CharacterisationWindows is the number of null windows simulated per
	// rate ratio during off-line characterisation.
	CharacterisationWindows int
	// Seed drives the characterisation simulation.
	Seed uint64
	// Workers bounds the characterisation fan-out: the RNG streams of a
	// pass (one per ratio index) are simulated concurrently, each derived
	// from its index, so the thresholds are bit-for-bit identical for any
	// worker count. 0 selects runtime.GOMAXPROCS(0); negative is invalid.
	Workers int
	// Obs, when non-nil, attaches the observability layer to the off-line
	// characterisation: a phase timer around each pass, counters of the
	// windows drawn, the windows scored and the ratios characterised, and
	// one "threshold" trace event per rate ratio. It does not affect the
	// computed thresholds.
	Obs *obs.Obs
}

// DefaultConfig returns the paper's operating point: m = 100, check every
// 5 samples, 99.5 % confidence, and a null sample of 4000 windows per ratio.
func DefaultConfig(rates []float64) Config {
	return Config{
		Rates:                   rates,
		WindowSize:              100,
		CheckInterval:           5,
		Confidence:              0.995,
		CharacterisationWindows: 4000,
		Seed:                    0x5eed,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if len(c.Rates) < 2 {
		return fmt.Errorf("changepoint: need at least two candidate rates, got %d", len(c.Rates))
	}
	seen := map[float64]bool{}
	lo, hi := math.Inf(1), 0.0
	for _, r := range c.Rates {
		if !(r > 0) || math.IsInf(r, 1) {
			return fmt.Errorf("changepoint: candidate rate must be positive and finite, got %v", r)
		}
		if seen[r] {
			return fmt.Errorf("changepoint: duplicate candidate rate %v", r)
		}
		seen[r] = true
		lo, hi = min(lo, r), max(hi, r)
	}
	if math.IsInf(hi/lo, 1) {
		return fmt.Errorf("changepoint: rate ratio %v/%v overflows", hi, lo)
	}
	if c.WindowSize < minWindow {
		return fmt.Errorf("changepoint: window size %d too small (need >= %d)", c.WindowSize, minWindow)
	}
	if c.CheckInterval < 1 {
		return fmt.Errorf("changepoint: check interval must be >= 1, got %d", c.CheckInterval)
	}
	if c.CheckInterval > c.WindowSize {
		// The window would evict every sample it buffers between two
		// evaluations: most observations could never contribute to any
		// statistic, silently blinding the detector.
		return fmt.Errorf("changepoint: check interval %d exceeds window size %d (samples would be evicted unevaluated)",
			c.CheckInterval, c.WindowSize)
	}
	if !(c.Confidence > 0.5 && c.Confidence < 1) {
		return fmt.Errorf("changepoint: confidence must be in (0.5, 1), got %v", c.Confidence)
	}
	if c.CharacterisationWindows < 100 {
		return fmt.Errorf("changepoint: need >= 100 characterisation windows, got %d", c.CharacterisationWindows)
	}
	if c.Workers < 0 {
		return fmt.Errorf("changepoint: workers must be non-negative, got %d", c.Workers)
	}
	return nil
}

// GeometricRates builds a geometric candidate rate grid from lo to hi with
// the given number of points — the natural Λ for multimedia rates that span
// an order of magnitude. The grid always includes both endpoints.
func GeometricRates(lo, hi float64, n int) ([]float64, error) {
	if !(lo > 0 && hi > lo) || math.IsInf(hi/lo, 1) {
		return nil, fmt.Errorf("changepoint: need 0 < lo < hi with a finite ratio hi/lo, got [%v, %v]", lo, hi)
	}
	if n < 2 {
		return nil, fmt.Errorf("changepoint: need at least two grid points, got %d", n)
	}
	out := make([]float64, n)
	ratio := math.Pow(hi/lo, 1/float64(n-1))
	v := lo
	for i := range out {
		out[i] = v
		v *= ratio
	}
	out[n-1] = hi // kill accumulated rounding
	return out, nil
}

// SnapRate returns the candidate rate closest to x (in log space, since the
// grid is ratio-structured). It panics on an empty grid.
func SnapRate(rates []float64, x float64) float64 {
	if len(rates) == 0 {
		panic("changepoint: empty rate grid")
	}
	if x <= 0 {
		return rates[0]
	}
	best := rates[0]
	bestD := math.Abs(math.Log(x / best))
	for _, r := range rates[1:] {
		if d := math.Abs(math.Log(x / r)); d < bestD {
			best, bestD = r, d
		}
	}
	return best
}

// likelihoodMaxFromSuffixes is the reference backward pass (logLikelihoodMax,
// in the tests) with the suffix sums already in hand,
// sufs[k] = Σ_{j=k+1..m} x_j, and the candidate's constants precomputed:
// logRatio = ln(λn/λo) and delta = λn − λo. The forward scan
// with >= keeps the largest k among tied maxima, matching the reference
// backward pass (which keeps the first maximum it meets coming down from
// k = m-1).
func likelihoodMaxFromSuffixes(sufs []float64, logRatio, delta float64) (best float64, bestK int) {
	m := len(sufs)
	best = math.Inf(-1)
	bestK = m
	for k := 0; k < m; k++ {
		lp := float64(m-k)*logRatio - delta*sufs[k]
		if lp >= best {
			best = lp
			bestK = k
		}
	}
	return best, bestK
}

// Thresholds holds the characterised detection thresholds, keyed by rate
// ratio λn/λo.
type Thresholds struct {
	windowSize int
	confidence float64
	// byRatio maps a quantised ratio to the null-quantile threshold.
	byRatio map[int64]float64
	// ratios retains the characterised ratios for reporting.
	ratios []float64
}

// ratioKey quantises a ratio for map lookup (1e-9 relative resolution in log
// space, far finer than any practical grid spacing).
func ratioKey(ratio float64) int64 {
	return int64(math.Round(math.Log(ratio) * 1e9))
}

// Characterise runs the off-line stochastic simulation and returns one
// threshold table per config, in order. This is the expensive, run-once
// step; a table can be shared by any number of detectors.
//
// Configs that share Seed, WindowSize, CharacterisationWindows, Workers and
// Obs are characterised in one pass that draws each null window once for all
// of them, and every table is bit-identical to the one its config gets
// alone.
func Characterise(cfgs ...Config) ([]*Thresholds, error) {
	grids, err := characterise(cfgs)
	if err != nil {
		return nil, err
	}
	out := make([]*Thresholds, len(grids))
	for i, g := range grids {
		out[i] = g.thresholds()
	}
	return out, nil
}

// CharacteriseDetailed additionally returns the null-hypothesis statistic
// histograms per rate ratio — the "results accumulated in a histogram" the
// paper describes — for inspection (see cmd/characterize -hist).
func CharacteriseDetailed(cfg Config) (*Thresholds, map[float64]*stats.Histogram, error) {
	grids, err := characterise([]Config{cfg})
	if err != nil {
		return nil, nil, err
	}
	g := grids[0]
	hists := make(map[float64]*stats.Histogram, len(g.ratios))
	for i, ratio := range g.ratios {
		hists[ratio] = g.hists[i]
	}
	return g.thresholds(), hists, nil
}

// grid is one config's share of a characterisation pass.
type grid struct {
	cfg Config
	// ratios are the grid's distinct ratios λn/λo in scan order: ratio i is
	// simulated on stream SplitAt(i) of the seed.
	ratios []float64
	// hists holds each ratio's null-statistic histogram once simulated.
	hists []*stats.Histogram
}

// characterise validates cfgs and simulates them, one pass per group of
// configs that can share their null windows.
func characterise(cfgs []Config) ([]*grid, error) {
	type passKey struct {
		seed                uint64
		m, windows, workers int
		obs                 *obs.Obs
	}
	grids := make([]*grid, len(cfgs))
	var passes [][]*grid
	at := make(map[passKey]int)
	for i, cfg := range cfgs {
		if err := cfg.Validate(); err != nil {
			return nil, err
		}
		grids[i] = newGrid(cfg)
		k := passKey{cfg.Seed, cfg.WindowSize, cfg.CharacterisationWindows, cfg.Workers, cfg.Obs}
		p, ok := at[k]
		if !ok {
			p = len(passes)
			at[k] = p
			passes = append(passes, nil)
		}
		passes[p] = append(passes[p], grids[i])
	}
	for _, pass := range passes {
		if err := characterisePass(pass); err != nil {
			return nil, err
		}
	}
	return grids, nil
}

// newGrid collects the distinct ratios of cfg's rate grid in deterministic
// scan order. The null distribution depends only on the ratio, and the
// pivot λo·Σx lets every ratio be simulated at λo = 1.
func newGrid(cfg Config) *grid {
	g := &grid{cfg: cfg}
	seen := make(map[int64]bool)
	for _, lo := range cfg.Rates {
		for _, ln := range cfg.Rates {
			if lo == ln {
				continue
			}
			ratio := ln / lo
			if key := ratioKey(ratio); !seen[key] {
				seen[key] = true
				g.ratios = append(g.ratios, ratio)
			}
		}
	}
	g.hists = make([]*stats.Histogram, len(g.ratios))
	return g
}

// thresholds reads each ratio's confidence quantile off its histogram.
func (g *grid) thresholds() *Thresholds {
	cfg := g.cfg
	t := &Thresholds{
		windowSize: cfg.WindowSize,
		confidence: cfg.Confidence,
		byRatio:    make(map[int64]float64, len(g.ratios)),
		ratios:     append([]float64(nil), g.ratios...),
	}
	tr := cfg.Obs.Tracer()
	for i, ratio := range g.ratios {
		th := g.hists[i].Quantile(cfg.Confidence)
		t.byRatio[ratioKey(ratio)] = th
		if tr != nil {
			tr.Emit(obs.Event{Kind: "threshold", NewRate: ratio, Value: th,
				Detail: fmt.Sprintf("m=%d conf=%g windows=%d", cfg.WindowSize, cfg.Confidence, cfg.CharacterisationWindows)})
		}
	}
	sort.Float64s(t.ratios)
	return t
}

// characterisePass simulates grids that share Seed, WindowSize,
// CharacterisationWindows, Workers and Obs. Ratio i of each of them draws
// its null windows from stream SplitAt(i) of the seed, so the pass fans out
// over stream indices: each stream is drawn once and every window is scored
// against ratio i of every grid that has one. The streams are index-derived,
// so the histograms are identical for any worker count.
func characterisePass(grids []*grid) error {
	lead := grids[0].cfg
	streams, ratios := 0, 0
	for _, g := range grids {
		streams = max(streams, len(g.ratios))
		ratios += len(g.ratios)
	}
	reg := lead.Obs.Registry()
	stop := reg.Timer("changepoint.characterise").Start()
	base := stats.NewRNG(lead.Seed)
	//lint:allow ctxflow characterisation is a single-flight cache fill with no caller context: the one non-cancellable stage
	draws, err := parallel.Map(context.Background(), lead.Workers, streams, func(i int) (int, error) {
		return characteriseStream(base.SplitAt(uint64(i)), i, grids)
	})
	stop()
	if err != nil {
		return err
	}
	if reg != nil {
		drawn := 0
		for _, d := range draws {
			drawn += d
		}
		reg.Counter("changepoint.characterise.draws").Add(float64(drawn))
		reg.Counter("changepoint.characterise.windows").Add(float64(ratios * lead.CharacterisationWindows))
		reg.Counter("changepoint.characterise.ratios").Add(float64(ratios))
	}
	return nil
}

// characteriseStream fills hists[i] of every grid that has a ratio i from
// stream i, rng, and returns the number of windows it drew. Only this call
// writes element i, and parallel.Map joins every call before its caller
// reads them. A histogram that clips near its confidence quantile is
// re-simulated alone over a wider span (widen).
func characteriseStream(rng *stats.RNG, i int, grids []*grid) (int, error) {
	var scores []score
	for _, g := range grids {
		if i < len(g.ratios) {
			scores = append(scores, newScore(g, g.ratios[i]))
		}
	}
	cfg := grids[0].cfg
	simulate(rng.Clone(), cfg.WindowSize, cfg.CharacterisationWindows, scores)
	drawn := cfg.CharacterisationWindows
	for _, s := range scores {
		if quantileClipped(s.h, s.g.cfg.Confidence) {
			wide, n, err := widen(rng, s)
			drawn += n
			if err != nil {
				return drawn, err
			}
			s = wide
		}
		s.g.hists[i] = s.h
	}
	return drawn, nil
}

// score accumulates the null statistic of one of g's ratios over
// [-span, span).
type score struct {
	g                     *grid
	ratio, logRatio, span float64
	h                     *stats.Histogram
}

// newScore sizes a ratio's histogram: ln P is bounded above by m·|ln ratio|
// in practice, so the span is generous and the bins fine.
func newScore(g *grid, ratio float64) score {
	l := math.Log(ratio)
	span := float64(g.cfg.WindowSize)*math.Abs(l) + 10
	return score{g: g, ratio: ratio, logRatio: l, span: span, h: stats.NewHistogram(-span, span, 4096)}
}

// widen re-simulates a ratio whose histogram clipped near the confidence
// quantile (extreme statistics landing in the under/overflow bins, which
// would silently bias the threshold), doubling the span each time. rng is
// the ratio's untouched stream and every attempt draws from a Clone of it,
// so every attempt scores the identical sample sequence and widening changes
// only the binning, never the data. Persistent clipping fails loudly rather
// than returning a biased threshold. It returns the widened score and the
// number of windows it drew.
func widen(rng *stats.RNG, s score) (score, int, error) {
	const maxAttempts = 8 // spans tried in all, the first one included
	cfg := s.g.cfg
	for attempt := 1; attempt < maxAttempts; attempt++ {
		s.span *= 2
		s.h = stats.NewHistogram(-s.span, s.span, 4096)
		simulate(rng.Clone(), cfg.WindowSize, cfg.CharacterisationWindows, []score{s})
		if !quantileClipped(s.h, cfg.Confidence) {
			return s, attempt * cfg.CharacterisationWindows, nil
		}
	}
	return s, (maxAttempts - 1) * cfg.CharacterisationWindows, fmt.Errorf(
		"changepoint: null statistic for ratio %v clips near the %.4g quantile even at span ±%g (under=%d over=%d of %d): threshold would be biased",
		s.ratio, cfg.Confidence, s.span, s.h.UnderflowCount(), s.h.OverflowCount(), s.h.Count())
}

// simulate draws windows null windows of m unit-rate samples from rng and
// adds each window's statistic max_k ln P(k) under every score's ratio to
// that score's histogram. A window's suffix sums are accumulated once,
// newest sample first, with the additions of the reference backward pass
// (logLikelihoodMax(window, 1, ratio) in the tests), and each ratio is
// scored by that pass's scan over them, so every histogram is the one its
// ratio gets when simulated alone.
func simulate(rng *stats.RNG, m, windows int, scores []score) {
	sufs := make([]float64, m)
	for w := 0; w < windows; w++ {
		for k := range sufs {
			sufs[k] = rng.UnitExp()
		}
		// sufs[k] becomes Σ_{j=k+1..m} x_j.
		suffix := 0.0
		for k := m - 1; k >= 0; k-- {
			suffix += sufs[k]
			sufs[k] = suffix
		}
		for _, s := range scores {
			delta := s.ratio - 1
			best := math.Inf(-1)
			for k := m - 1; k >= 0; k-- {
				if lp := float64(m-k)*s.logRatio - delta*sufs[k]; lp > best {
					best = lp
				}
			}
			s.h.Add(best)
		}
	}
}

// quantileClipped reports whether out-of-range samples could bias the
// confidence quantile read from h. Underflow biases it when enough samples
// sit below the range to swallow the whole quantile target; overflow biases
// it when the clipped upper tail is of the same order as the tail mass the
// quantile leaves above itself (factor-two safety margin).
func quantileClipped(h *stats.Histogram, confidence float64) bool {
	n := float64(h.Count())
	if n == 0 {
		return false
	}
	if float64(h.UnderflowCount()) >= math.Ceil(confidence*n) {
		return true
	}
	tail := (1 - confidence) * n
	return h.OverflowCount() > 0 && float64(h.OverflowCount()) >= tail/2
}

// For returns the threshold for a change from oldRate to newRate.
// It returns an error if the ratio was not characterised.
func (t *Thresholds) For(oldRate, newRate float64) (float64, error) {
	th, ok := t.byRatio[ratioKey(newRate/oldRate)]
	if !ok {
		return 0, fmt.Errorf("changepoint: ratio %v/%v not characterised", newRate, oldRate)
	}
	return th, nil
}

// Ratios returns the characterised ratios in ascending order.
func (t *Thresholds) Ratios() []float64 {
	out := make([]float64, len(t.ratios))
	copy(out, t.ratios)
	return out
}

// WindowSize returns the window size the thresholds were characterised for.
func (t *Thresholds) WindowSize() int { return t.windowSize }

// Confidence returns the characterisation confidence level.
func (t *Thresholds) Confidence() float64 { return t.confidence }

// ThresholdSet is the portable, exact snapshot of a threshold table: the
// characterised ratios in ascending order, each with its null-quantile
// threshold. Snapshot and RestoreThresholds round-trip every float64 bit for
// bit — the serialisation contract the content-addressed threshold cache
// (internal/thrcache) is built on.
type ThresholdSet struct {
	WindowSize int
	Confidence float64
	Ratios     []float64
	Values     []float64
}

// Snapshot exports the threshold table. The returned slices are fresh copies.
func (t *Thresholds) Snapshot() ThresholdSet {
	s := ThresholdSet{
		WindowSize: t.windowSize,
		Confidence: t.confidence,
		Ratios:     make([]float64, len(t.ratios)),
		Values:     make([]float64, len(t.ratios)),
	}
	copy(s.Ratios, t.ratios)
	for i, r := range s.Ratios {
		s.Values[i] = t.byRatio[ratioKey(r)]
	}
	return s
}

// RestoreThresholds rebuilds a threshold table from a snapshot, validating
// the invariants Characterise guarantees (positive non-unit ratios, strictly
// ascending with distinct quantisation keys, one value per ratio). The
// restored table answers For, Ratios, WindowSize and Confidence identically
// to the table the snapshot was taken from.
func RestoreThresholds(s ThresholdSet) (*Thresholds, error) {
	if s.WindowSize < 10 {
		return nil, fmt.Errorf("changepoint: snapshot window size %d too small (need >= 10)", s.WindowSize)
	}
	if s.Confidence <= 0.5 || s.Confidence >= 1 {
		return nil, fmt.Errorf("changepoint: snapshot confidence %v outside (0.5, 1)", s.Confidence)
	}
	if len(s.Ratios) == 0 {
		return nil, fmt.Errorf("changepoint: snapshot has no ratios")
	}
	if len(s.Ratios) != len(s.Values) {
		return nil, fmt.Errorf("changepoint: snapshot has %d ratios but %d values", len(s.Ratios), len(s.Values))
	}
	t := &Thresholds{
		windowSize: s.WindowSize,
		confidence: s.Confidence,
		byRatio:    make(map[int64]float64, len(s.Ratios)),
		ratios:     make([]float64, len(s.Ratios)),
	}
	copy(t.ratios, s.Ratios)
	prev := math.Inf(-1)
	for i, r := range s.Ratios {
		if !(r > 0) || r == 1 || math.IsInf(r, 0) {
			return nil, fmt.Errorf("changepoint: invalid snapshot ratio %v", r)
		}
		if r <= prev {
			return nil, fmt.Errorf("changepoint: snapshot ratios not strictly ascending (%v after %v)", r, prev)
		}
		prev = r
		key := ratioKey(r)
		if _, dup := t.byRatio[key]; dup {
			return nil, fmt.Errorf("changepoint: snapshot ratios %v quantise to a duplicate key", r)
		}
		if v := s.Values[i]; math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("changepoint: non-finite snapshot threshold %v for ratio %v", v, r)
		}
		t.byRatio[key] = s.Values[i]
	}
	return t, nil
}

// Detection reports one detected rate change.
type Detection struct {
	// OldRate and NewRate are the grid rates before and after the change.
	OldRate, NewRate float64
	// SampleIndex is the total number of samples observed when the change was
	// declared.
	SampleIndex int
	// ChangeOffset is the estimated k: how many of the window's samples
	// precede the change.
	ChangeOffset int
	// Statistic and Threshold are the winning ln P_max and its threshold.
	Statistic, Threshold float64
	// MLERate is the maximum-likelihood rate of the post-change suffix.
	MLERate float64
	// Refined marks a refinement correction (see refineAfter) rather
	// than a fresh threshold crossing.
	Refined bool
}

// candidate holds what a check needs about one candidate rate λc for one
// current rate λo: Lc = ln(λc/λo), δc = λc − λo and the threshold.
type candidate struct {
	rate, logRatio, delta, threshold float64
}

// Detector performs on-line change detection over a stream of interarrival
// or decoding times.
type Detector struct {
	cfg        Config
	window     *stats.Window
	current    float64
	sinceCheck int
	observed   int
	// sinceDetect counts clean post-detection samples while refinement is
	// active; -1 means no refinement pending.
	sinceDetect int
	// table holds the candidates of every current rate: row i, of
	// len(Rates)-1 entries in grid order, serves λo = Rates[i]. cands is the
	// row of the current rate.
	table, cands []candidate
	// The screen: one block-decomposed sliding-window maximum of h_c over
	// all candidates, stored as rows of len(cands) values. next is the index
	// p the next sample gets, counted from the oldest sample held at the
	// last rebuild; blocks of m = WindowSize samples start at p = 0, the
	// current one at blockStart. hcur row i holds the h values of sample
	// blockStart+i and hmax their running maxima; hsuf row i holds the
	// maxima of the previous block's rows i..m−1. A window that starts in the
	// previous block is a suffix of it plus this block so far, so its
	// maximum is one read of each.
	hcur, hsuf, hmax []float64
	next, blockStart int
	// sufs is the exact scan's suffix-sum scratch: sufs[k] = Σ_{j=k+1..m} x_j,
	// filled once per scan from the window's O(1) prefix ring and shared by
	// every candidate rate. Reused across scans, so Observe never allocates
	// in the steady state.
	sufs []float64

	// Observability (nil when uninstrumented — the fast path).
	tr      *obs.Tracer
	label   string
	cDetect *obs.Counter
	cRefine *obs.Counter
}

// NewDetector builds a detector starting from the given initial rate, which
// is snapped to the candidate grid. The thresholds must come from
// Characterise with the same Config: a table that lacks a ratio of the
// config's grid is rejected here rather than at the first check.
func NewDetector(cfg Config, th *Thresholds, initialRate float64) (*Detector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if th == nil {
		return nil, fmt.Errorf("changepoint: nil thresholds (run Characterise first)")
	}
	if th.windowSize != cfg.WindowSize {
		return nil, fmt.Errorf("changepoint: thresholds characterised for window %d, config has %d",
			th.windowSize, cfg.WindowSize)
	}
	if initialRate <= 0 {
		return nil, fmt.Errorf("changepoint: initial rate must be positive, got %v", initialRate)
	}
	k := len(cfg.Rates) - 1
	table := make([]candidate, 0, len(cfg.Rates)*k)
	for _, lo := range cfg.Rates {
		for _, ln := range cfg.Rates {
			if ln == lo {
				continue
			}
			t, err := th.For(lo, ln)
			if err != nil {
				return nil, err
			}
			table = append(table, candidate{rate: ln, logRatio: math.Log(ln / lo), delta: ln - lo, threshold: t})
		}
	}
	block := cfg.WindowSize * k
	slab := make([]float64, 2*block+k)
	d := &Detector{
		cfg:         cfg,
		window:      stats.NewWindow(cfg.WindowSize),
		current:     SnapRate(cfg.Rates, initialRate),
		sinceDetect: -1,
		table:       table,
		hcur:        slab[:block:block],
		hsuf:        slab[block : 2*block : 2*block],
		hmax:        slab[2*block:],
		sufs:        make([]float64, cfg.WindowSize),
	}
	d.rebuildScreen()
	return d, nil
}

// Instrument attaches observability to the detector: detections and
// refinements are counted in the registry under the given label (e.g.
// "arrival" or "service") and streamed to the tracer as "detect" events.
// A nil o leaves the detector uninstrumented.
func (d *Detector) Instrument(o *obs.Obs, label string) {
	if o == nil {
		return
	}
	d.tr = o.Tracer()
	d.label = label
	if r := o.Registry(); r != nil {
		d.cDetect = r.Counter("changepoint." + label + ".detections")
		d.cRefine = r.Counter("changepoint." + label + ".refinements")
	}
}

// observeDetection records one accepted detection in the observability layer.
func (d *Detector) observeDetection(det Detection) {
	if det.Refined {
		d.cRefine.Inc()
	} else {
		d.cDetect.Inc()
	}
	if d.tr != nil {
		d.tr.Emit(obs.Event{Kind: "detect", Comp: d.label,
			OldRate: det.OldRate, NewRate: det.NewRate,
			Stat: det.Statistic, Threshold: det.Threshold, Refined: det.Refined})
	}
}

// CurrentRate returns the detector's current rate estimate (a grid rate).
func (d *Detector) CurrentRate() float64 { return d.current }

// Observed returns the total number of samples seen.
func (d *Detector) Observed() int { return d.observed }

// SetRate forces the current rate (snapped to the grid) and clears the
// window; used when the power manager knows the regime changed for reasons
// outside the sample stream (e.g. a new clip started after an idle period).
func (d *Detector) SetRate(rate float64) {
	d.current = SnapRate(d.cfg.Rates, rate)
	d.window.Reset()
	d.rebuildScreen()
	d.sinceCheck = 0
	d.sinceDetect = -1
}

// rebuildScreen selects the candidate row of the current rate and refills
// the screen from the window's stored prefixes, starting a block at p = 0.
// It runs whenever λo changes or the window is reset or trimmed.
func (d *Detector) rebuildScreen() {
	k := len(d.cfg.Rates) - 1
	for i, r := range d.cfg.Rates {
		if r == d.current {
			d.cands = d.table[i*k : (i+1)*k]
		}
	}
	d.next, d.blockStart = 0, 0
	for i := 0; i < d.window.Len(); i++ {
		d.pushScreen(d.window.PrefixAt(i))
	}
}

// pushScreen enters the next sample, whose stream prefix before it is pre,
// into the screen: one row of h values, folded into the block's running
// maxima. A full block is first closed by closeBlock.
func (d *Detector) pushScreen(pre float64) {
	p := d.next
	d.next++
	if p-d.blockStart == d.cfg.WindowSize {
		d.closeBlock()
	}
	k := len(d.cands)
	i := (p - d.blockStart) * k
	row, run := d.hcur[i:i+k], d.hmax[:k]
	if i == 0 {
		for j := range run {
			run[j] = math.Inf(-1)
		}
	}
	for j := range row {
		c := &d.cands[j]
		h := c.delta*pre - float64(p)*c.logRatio
		row[j] = h
		run[j] = max(run[j], h)
	}
}

// closeBlock turns the full block's rows into suffix maxima in one backward
// pass, makes them the previous block and starts an empty one.
func (d *Detector) closeBlock() {
	k := len(d.cands)
	h := d.hcur[:d.cfg.WindowSize*k]
	for i := len(h) - k - 1; i >= 0; i-- {
		h[i] = max(h[i], h[i+k])
	}
	d.hcur, d.hsuf = d.hsuf, d.hcur
	d.blockStart += d.cfg.WindowSize
}

// bound returns candidate j's screened statistic and the rounding slack
// around it. With N samples indexed since the last rebuild and stream total
// P_N, the exact statistic is N·Lc − δc·P_N + max h_c up to rounding; the
// slack exceeds the rounding difference between that grouping and the exact
// scan's by many orders of magnitude. The window holds the samples from
// o = N − m on; when o falls in the previous block, its part of the window
// is the suffix maximum at o.
func (d *Detector) bound(j int) (s, slack float64) {
	c, h := &d.cands[j], d.hmax[j]
	m := d.cfg.WindowSize
	if o := d.next - m; o >= 0 && o < d.blockStart {
		h = max(h, d.hsuf[(o-d.blockStart+m)*len(d.cands)+j])
	}
	a, b := float64(d.next)*c.logRatio, c.delta*d.window.Prefix()
	return a - b + h, 1e-9 * (math.Abs(a) + math.Abs(b) + math.Abs(h) + math.Abs(c.threshold) + 1)
}

// screenClear reports whether every candidate's bound, slack included, is at
// or below its threshold, so that the exact scan would find nothing.
func (d *Detector) screenClear() bool {
	for j := range d.cands {
		if s, slack := d.bound(j); s+slack > d.cands[j].threshold {
			return false
		}
	}
	return true
}

// Observe feeds one interarrival (or decoding) time. It returns a Detection
// and true when a rate change is declared. Negative or non-finite samples
// are rejected with a panic — they indicate a simulator bug, not a data
// condition.
func (d *Detector) Observe(x float64) (Detection, bool) {
	if det, ok := d.advance(x); ok || !d.checkDue() || d.screenClear() {
		return det, ok
	}
	best, found := d.scan()
	if !found {
		return Detection{}, false
	}
	return d.adopt(best), true
}

// advance enters one sample into the window and the screen and runs a due
// refinement pass, returning its Detection when it adopts a new rate.
func (d *Detector) advance(x float64) (Detection, bool) {
	if x < 0 || math.IsNaN(x) || math.IsInf(x, 0) {
		panic(fmt.Sprintf("changepoint: invalid sample %v", x))
	}
	pre := d.window.Prefix()
	d.window.Push(x)
	d.pushScreen(pre)
	d.observed++
	d.sinceCheck++
	// Refinement after a recent detection (see refineAfter): every
	// refineAfter samples, re-estimate the rate over the samples observed
	// since the detection (a clean post-change suffix — anything older may
	// predate the change, since the detection's change-point estimate is
	// imprecise) and adopt the grid snap if it disagrees. The suffix grows
	// with every pass, so the estimate sharpens until a full window has
	// accumulated and the regular mechanism takes over.
	if d.sinceDetect >= 0 {
		d.sinceDetect++
		if d.sinceDetect >= d.window.Cap() {
			d.sinceDetect = -1
		} else if d.sinceDetect%refineAfter == 0 {
			n := d.sinceDetect
			if l := d.window.Len(); l < n {
				n = l
			}
			var mle float64
			if s := d.window.SuffixSum(n); s > 0 {
				mle = float64(n) / s
			}
			if snapped := SnapRate(d.cfg.Rates, mle); mle > 0 && snapped != d.current {
				det := Detection{
					OldRate:      d.current,
					NewRate:      snapped,
					SampleIndex:  d.observed,
					ChangeOffset: d.window.Len() - n,
					MLERate:      mle,
					Refined:      true,
				}
				d.current = snapped
				// Adopt-and-trim, exactly like the threshold-crossing path
				// below: discard the samples that predate the original
				// detection (they may predate the change itself — the
				// change-point estimate is imprecise) and restart the check
				// cadence. Without this, the next threshold evaluation
				// scores a mixed-rate window against the newly adopted
				// rate, which both hides real follow-up changes and
				// manufactures spurious ones.
				if n < d.window.Len() {
					d.window.Keep(n)
				}
				d.rebuildScreen()
				d.sinceCheck = 0
				d.observeDetection(det)
				return det, true
			}
		}
	}
	return Detection{}, false
}

// checkDue reports whether the statistic is evaluated on this sample and,
// when it is, restarts the check cadence.
func (d *Detector) checkDue() bool {
	if d.window.Len() < minWindow || d.sinceCheck < d.cfg.CheckInterval {
		return false
	}
	d.sinceCheck = 0
	return true
}

// scan is the exact check: every candidate's max_k ln P(k) over the
// window's suffix sums, each an O(1) prefix-ring read filled once and
// shared across candidates. It returns the candidate with the largest
// margin above its threshold, if any. It alone produces the Statistic,
// ChangeOffset and MLERate of a threshold-crossing Detection.
func (d *Detector) scan() (Detection, bool) {
	n := d.window.Len()
	sufs := d.suffixSums(n)
	bestMargin := 0.0
	var best Detection
	found := false
	for j := range d.cands {
		c := &d.cands[j]
		s, k := likelihoodMaxFromSuffixes(sufs, c.logRatio, c.delta)
		if margin := s - c.threshold; s > c.threshold && margin > bestMargin {
			var mle float64
			if suf := sufs[k]; suf > 0 {
				mle = float64(n-k) / suf
			}
			best = Detection{
				OldRate:      d.current,
				NewRate:      c.rate,
				SampleIndex:  d.observed,
				ChangeOffset: k,
				Statistic:    s,
				Threshold:    c.threshold,
				MLERate:      mle,
			}
			bestMargin = margin
			found = true
		}
	}
	return best, found
}

// suffixSums fills the detector's scratch with the n suffix sums of the
// current window, each an O(1) prefix-ring read.
func (d *Detector) suffixSums(n int) []float64 {
	sufs := d.sufs[:n]
	for k := range sufs {
		sufs[k] = d.window.SuffixSum(n - k)
	}
	return sufs
}

// adopt accepts a threshold-crossing detection: it adopts the new rate,
// keeps only the post-change samples and arms refinement. When the suffix
// is long enough for a meaningful estimate, the suffix MLE picks the grid
// rate — the threshold crossing says *that* the rate changed, the suffix
// mean says *to what*.
func (d *Detector) adopt(best Detection) Detection {
	post := d.window.Len() - best.ChangeOffset
	if post >= 5 && best.MLERate > 0 {
		if snapped := SnapRate(d.cfg.Rates, best.MLERate); snapped != d.current {
			best.NewRate = snapped
		}
	}
	d.current = best.NewRate
	d.window.Keep(post)
	d.rebuildScreen()
	d.sinceDetect = 0
	d.observeDetection(best)
	return best
}
