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
// result. Characterisation scores its null windows with the reference
// backward pass (logLikelihoodMax).
//
// Off-line characterisation. For each (λo, λn) pair from the predefined rate
// set Λ, windows are simulated under the null hypothesis (all m samples at
// rate λo), the statistic is accumulated into a histogram, and the
// confidence quantile (99.5 % in the paper) becomes the on-line threshold:
// a statistic above it occurs with probability ≤ 0.5 % when no change
// happened. Because the null distribution of ln P(k) depends on (λo, λn)
// only through the ratio λn/λo (λo·Σx is a Gamma(m−k, 1) pivot), thresholds
// are cached per ratio, which collapses a geometric rate grid to a handful
// of simulations.
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
	// MinWindow is the smallest number of buffered samples at which checks
	// run. After a detection the pre-change samples are discarded, so the
	// window is short for a while; evaluating the statistic on n < m samples
	// against the m-sample threshold is conservative (the null statistic over
	// a suffix subset is stochastically smaller), and it is what lets the
	// detector settle within ~10 frames as in Figure 10 instead of waiting
	// for a full window to refill.
	//
	// MinWindow < CheckInterval is allowed but inert: after the window is
	// cleared, the first evaluation cannot happen before CheckInterval
	// samples have accumulated anyway, so the effective minimum is
	// max(MinWindow, CheckInterval).
	MinWindow int
	// RefineAfter schedules refinement passes every RefineAfter samples
	// following a detection, until WindowSize post-change samples have
	// accumulated: the mean of the samples observed since the detection is
	// re-snapped to the rate grid and adopted when it disagrees with the
	// current rate. Detection fires on ~10 post-change samples, which is
	// enough to notice *that* the rate changed but noisy for picking *which*
	// neighbouring grid rate it changed to; refinement corrects an
	// off-by-one grid pick without waiting for the slow threshold crossing
	// between adjacent rates. 0 disables refinement.
	RefineAfter int
	// Confidence is the characterisation quantile (paper: 0.995).
	Confidence float64
	// CharacterisationWindows is the number of null windows simulated per
	// rate ratio during off-line characterisation.
	CharacterisationWindows int
	// Seed drives the characterisation simulation.
	Seed uint64
	// Workers bounds the characterisation fan-out: the distinct rate ratios
	// are simulated concurrently, each on its own index-derived RNG stream,
	// so the thresholds are bit-for-bit identical for any worker count.
	// 0 selects runtime.GOMAXPROCS(0); negative is invalid.
	Workers int
	// Obs, when non-nil, attaches the observability layer to the off-line
	// characterisation: a phase timer around the simulation, a counter of
	// simulated windows, and one "threshold" trace event per rate ratio.
	// It does not affect the computed thresholds.
	Obs *obs.Obs
}

// DefaultConfig returns the paper's operating point: m = 100, check every
// 5 samples, 99.5 % confidence, and a null sample of 4000 windows per ratio.
func DefaultConfig(rates []float64) Config {
	return Config{
		Rates:                   rates,
		WindowSize:              100,
		CheckInterval:           5,
		MinWindow:               10,
		RefineAfter:             20,
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
	for _, r := range c.Rates {
		if r <= 0 {
			return fmt.Errorf("changepoint: candidate rate must be positive, got %v", r)
		}
		if seen[r] {
			return fmt.Errorf("changepoint: duplicate candidate rate %v", r)
		}
		seen[r] = true
	}
	if c.WindowSize < 10 {
		return fmt.Errorf("changepoint: window size %d too small (need >= 10)", c.WindowSize)
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
	if c.MinWindow < 2 || c.MinWindow > c.WindowSize {
		return fmt.Errorf("changepoint: min window %d must be in [2, %d]", c.MinWindow, c.WindowSize)
	}
	if c.RefineAfter < 0 {
		return fmt.Errorf("changepoint: refine-after must be non-negative, got %d", c.RefineAfter)
	}
	if c.Confidence <= 0.5 || c.Confidence >= 1 {
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
	if lo <= 0 || hi <= lo {
		return nil, fmt.Errorf("changepoint: need 0 < lo < hi, got [%v, %v]", lo, hi)
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

// logLikelihoodMax computes max_k ln P(k) for the window values (oldest
// first) under candidate rates (λo → λn), along with the argmax k.
// Equation 4 of the paper, evaluated for every k in one backward pass.
func logLikelihoodMax(values []float64, oldRate, newRate float64) (best float64, bestK int) {
	m := len(values)
	logRatio := math.Log(newRate / oldRate)
	delta := newRate - oldRate
	best = math.Inf(-1)
	bestK = m
	suffix := 0.0
	// k = m-1 .. 0; suffix holds Σ_{j=k+1..m} x_j after adding values[k].
	for k := m - 1; k >= 0; k-- {
		suffix += values[k]
		lp := float64(m-k)*logRatio - delta*suffix
		if lp > best {
			best = lp
			bestK = k
		}
	}
	return best, bestK
}

// likelihoodMaxFromSuffixes is logLikelihoodMax with the suffix sums already
// in hand, sufs[k] = Σ_{j=k+1..m} x_j, and the candidate's constants
// precomputed: logRatio = ln(λn/λo) and delta = λn − λo. The forward scan
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

// Characterise runs the off-line stochastic simulation and returns the
// threshold table for the configured rate set. This is the expensive,
// run-once step; the result can be shared by any number of detectors.
func Characterise(cfg Config) (*Thresholds, error) {
	t, _, err := characterise(cfg, false)
	return t, err
}

// CharacteriseDetailed additionally returns the null-hypothesis statistic
// histograms per rate ratio — the "results accumulated in a histogram" the
// paper describes — for inspection (see cmd/characterize -hist).
func CharacteriseDetailed(cfg Config) (*Thresholds, map[float64]*stats.Histogram, error) {
	return characterise(cfg, true)
}

func characterise(cfg Config, keepHistograms bool) (*Thresholds, map[float64]*stats.Histogram, error) {
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	t := &Thresholds{
		windowSize: cfg.WindowSize,
		confidence: cfg.Confidence,
		byRatio:    make(map[int64]float64),
	}
	var hists map[float64]*stats.Histogram
	if keepHistograms {
		hists = make(map[float64]*stats.Histogram)
	}
	// The null distribution depends only on the ratio, and the pivot
	// λo·Σx lets us simulate once at λo = 1. Collect the distinct ratios in
	// deterministic scan order, then fan the simulations out: each ratio gets
	// its own index-derived RNG stream, so the thresholds are identical for
	// any worker count.
	seen := make(map[int64]bool)
	var ratios []float64
	for _, lo := range cfg.Rates {
		for _, ln := range cfg.Rates {
			if lo == ln {
				continue
			}
			ratio := ln / lo
			if key := ratioKey(ratio); !seen[key] {
				seen[key] = true
				ratios = append(ratios, ratio)
			}
		}
	}
	stop := cfg.Obs.Registry().Timer("changepoint.characterise").Start()
	base := stats.NewRNG(cfg.Seed)
	//lint:allow ctxflow characterisation is a single-flight cache fill with no caller context: the one non-cancellable stage
	hs, err := parallel.Map(context.Background(), cfg.Workers, len(ratios), func(i int) (*stats.Histogram, error) {
		return characteriseRatio(base.SplitAt(uint64(i)), ratios[i], cfg)
	})
	stop()
	if err != nil {
		return nil, nil, err
	}
	tr := cfg.Obs.Tracer()
	for i, ratio := range ratios {
		th := hs[i].Quantile(cfg.Confidence)
		t.byRatio[ratioKey(ratio)] = th
		t.ratios = append(t.ratios, ratio)
		if keepHistograms {
			hists[ratio] = hs[i]
		}
		if tr != nil {
			tr.Emit(obs.Event{Kind: "threshold", NewRate: ratio, Value: th,
				Detail: fmt.Sprintf("m=%d conf=%g windows=%d", cfg.WindowSize, cfg.Confidence, cfg.CharacterisationWindows)})
		}
	}
	if reg := cfg.Obs.Registry(); reg != nil {
		reg.Counter("changepoint.characterise.windows").
			Add(float64(len(ratios) * cfg.CharacterisationWindows))
		reg.Counter("changepoint.characterise.ratios").Add(float64(len(ratios)))
	}
	sort.Float64s(t.ratios)
	return t, hists, nil
}

// characteriseRatio simulates null windows at unit rate and returns the
// histogram of the statistic for candidate rate = ratio. rng is this
// ratio's private stream (the caller derives it with SplitAt, so workers
// never share generator state). When the histogram clips near the
// confidence quantile (extreme statistics landing in the under/overflow
// bins, which would silently bias the threshold), the span is doubled and a
// Clone of the untouched stream re-simulated — every attempt scores the
// identical sample sequence and widening changes only the binning, never
// the data. Persistent clipping fails loudly rather than returning a
// biased threshold.
func characteriseRatio(rng *stats.RNG, ratio float64, cfg Config) (*stats.Histogram, error) {
	// Statistic range: ln P is bounded above by m·|ln ratio| in practice;
	// histogram over a generous span with fine bins.
	span := float64(cfg.WindowSize)*math.Abs(math.Log(ratio)) + 10
	const maxAttempts = 8
	for attempt := 0; ; attempt++ {
		h := nullStatisticHistogram(rng.Clone(), ratio, cfg, span)
		if !quantileClipped(h, cfg.Confidence) {
			return h, nil
		}
		if attempt == maxAttempts-1 {
			return nil, fmt.Errorf(
				"changepoint: null statistic for ratio %v clips near the %.4g quantile even at span ±%g (under=%d over=%d of %d): threshold would be biased",
				ratio, cfg.Confidence, span, h.UnderflowCount(), h.OverflowCount(), h.Count())
		}
		span *= 2
	}
}

// nullStatisticHistogram fills one null-hypothesis histogram over [-span, span).
func nullStatisticHistogram(rng *stats.RNG, ratio float64, cfg Config, span float64) *stats.Histogram {
	values := make([]float64, cfg.WindowSize)
	h := stats.NewHistogram(-span, span, 4096)
	for w := 0; w < cfg.CharacterisationWindows; w++ {
		for i := range values {
			values[i] = rng.Exp(1)
		}
		s, _ := logLikelihoodMax(values, 1, ratio)
		h.Add(s)
	}
	return h
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
	// Refined marks a refinement correction (see Config.RefineAfter) rather
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
	// Refinement after a recent detection (see Config.RefineAfter): every
	// RefineAfter samples, re-estimate the rate over the samples observed
	// since the detection (a clean post-change suffix — anything older may
	// predate the change, since the detection's change-point estimate is
	// imprecise) and adopt the grid snap if it disagrees. The suffix grows
	// with every pass, so the estimate sharpens until a full window has
	// accumulated and the regular mechanism takes over.
	if d.sinceDetect >= 0 {
		d.sinceDetect++
		if d.sinceDetect >= d.window.Cap() {
			d.sinceDetect = -1
		} else if d.cfg.RefineAfter > 0 && d.sinceDetect%d.cfg.RefineAfter == 0 {
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
					post := d.window.Values()
					d.window.Reset()
					for _, v := range post[len(post)-n:] {
						d.window.Push(v)
					}
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
	if d.window.Len() < d.cfg.MinWindow || d.sinceCheck < d.cfg.CheckInterval {
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
	values := d.window.Values() // detections are rare; allocate only here
	post := values[best.ChangeOffset:]
	if len(post) >= 5 && best.MLERate > 0 {
		if snapped := SnapRate(d.cfg.Rates, best.MLERate); snapped != d.current {
			best.NewRate = snapped
		}
	}
	d.current = best.NewRate
	d.window.Reset()
	for _, v := range post {
		d.window.Push(v)
	}
	d.rebuildScreen()
	if d.cfg.RefineAfter > 0 {
		d.sinceDetect = 0
	}
	d.observeDetection(best)
	return best
}
