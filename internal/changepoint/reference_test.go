package changepoint

import (
	"fmt"
	"math"
	"sort"

	"smartbadge/internal/stats"
)

// ReferenceDetector is the equivalence oracle for the production detector:
// at every check it materialises the window and recomputes each candidate's
// suffix sums with the O(m) backward pass of logLikelihoodMax, looking every
// threshold up afresh, with no screen and no candidate table. Refinement,
// trimming and adoption are the production detector's own, so the two differ
// only in how a check evaluates the statistic. It is exported from a test
// file so the external full-run golden can drive it through a policy
// estimator.
type ReferenceDetector struct {
	d  *Detector
	th *Thresholds
}

// NewReferenceDetector builds the oracle with NewDetector's validation.
func NewReferenceDetector(cfg Config, th *Thresholds, initialRate float64) (*ReferenceDetector, error) {
	d, err := NewDetector(cfg, th, initialRate)
	if err != nil {
		return nil, err
	}
	return &ReferenceDetector{d: d, th: th}, nil
}

// CurrentRate returns the oracle's current grid rate.
func (r *ReferenceDetector) CurrentRate() float64 { return r.d.CurrentRate() }

// SetRate forces the current rate and clears the window, as Detector.SetRate.
func (r *ReferenceDetector) SetRate(rate float64) { r.d.SetRate(rate) }

// Observe is Detector.Observe with the reference statistic path.
func (r *ReferenceDetector) Observe(x float64) (Detection, bool) {
	d := r.d
	if det, ok := d.advance(x); ok || !d.checkDue() {
		return det, ok
	}
	values := d.window.Values()
	bestMargin := 0.0
	var best Detection
	found := false
	for _, cand := range d.cfg.Rates {
		if cand == d.current {
			continue
		}
		th, err := r.th.For(d.current, cand)
		if err != nil {
			panic(err)
		}
		s, k := logLikelihoodMax(values, d.current, cand)
		if margin := s - th; s > th && margin > bestMargin {
			best = Detection{
				OldRate:      d.current,
				NewRate:      cand,
				SampleIndex:  d.observed,
				ChangeOffset: k,
				Statistic:    s,
				Threshold:    th,
				MLERate:      stats.MeanRate(values[k:]),
			}
			bestMargin = margin
			found = true
		}
	}
	if !found {
		return Detection{}, false
	}
	return d.adopt(best), true
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

// referenceCharacterise is the per-ratio characterisation the joint pass
// replaced, kept as its equivalence oracle. Ratio i of the grid, in scan
// order, draws its own null windows from stream SplitAt(i) of the seed and
// scores each with logLikelihoodMax; while the confidence quantile clips,
// the span doubles and a Clone of the untouched stream is re-drawn. It
// returns the table and each ratio's histogram.
func referenceCharacterise(cfg Config) (*Thresholds, map[float64]*stats.Histogram, error) {
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	t := &Thresholds{windowSize: cfg.WindowSize, confidence: cfg.Confidence, byRatio: make(map[int64]float64)}
	hists := make(map[float64]*stats.Histogram)
	base := stats.NewRNG(cfg.Seed)
	values := make([]float64, cfg.WindowSize)
	for _, lo := range cfg.Rates {
		for _, ln := range cfg.Rates {
			ratio := ln / lo
			if _, seen := t.byRatio[ratioKey(ratio)]; lo == ln || seen {
				continue
			}
			rng := base.SplitAt(uint64(len(t.ratios)))
			span := float64(cfg.WindowSize)*math.Abs(math.Log(ratio)) + 10
			for attempt := 0; ; attempt++ {
				h := stats.NewHistogram(-span, span, 4096)
				r := rng.Clone()
				for w := 0; w < cfg.CharacterisationWindows; w++ {
					for i := range values {
						values[i] = r.Exp(1)
					}
					s, _ := logLikelihoodMax(values, 1, ratio)
					h.Add(s)
				}
				if !quantileClipped(h, cfg.Confidence) {
					t.byRatio[ratioKey(ratio)] = h.Quantile(cfg.Confidence)
					t.ratios = append(t.ratios, ratio)
					hists[ratio] = h
					break
				}
				if attempt == 7 {
					return nil, nil, fmt.Errorf("reference: ratio %v clips at span ±%g", ratio, span)
				}
				span *= 2
			}
		}
	}
	sort.Float64s(t.ratios)
	return t, hists, nil
}
