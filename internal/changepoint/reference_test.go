package changepoint

import "smartbadge/internal/stats"

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
