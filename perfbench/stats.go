package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a percentile before it is
// reported: a p90 over 40 samples rests on 4 values and says little.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of xs, the
// same rule internal/fleet uses for its aggregates. xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[nearestRank(len(s), p)-1]
}

// nearestRank is the 1-based rank of the nearest-rank p-quantile of n
// samples.
func nearestRank(n int, p float64) int {
	r := int(math.Ceil(p * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// samplesBeyond counts the samples ranked strictly above the nearest-rank
// p-quantile of n samples.
func samplesBeyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - nearestRank(n, p)
}

// tailValid reports whether the p-quantile of n samples has at least
// minBeyond samples beyond it.
func tailValid(n int, p float64) bool { return samplesBeyond(n, p) >= minBeyond }

// mean is the arithmetic mean of xs, or 0 for none.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// shardImbalance is the busiest shard's total over the mean shard total
// when the per-badge times durs are dealt to shards the way internal/fleet
// deals badges: with w = min(workers, n) shards, shard s runs badges s,
// s+w, s+2w, … in one goroutine.
func shardImbalance(durs []float64, workers int) float64 {
	n := len(durs)
	if n == 0 || workers <= 0 {
		return 0
	}
	w := workers
	if w > n {
		w = n
	}
	busy := make([]float64, w)
	for i, d := range durs {
		busy[i%w] += d
	}
	var max, total float64
	for _, b := range busy {
		total += b
		if b > max {
			max = b
		}
	}
	if total == 0 {
		return 0
	}
	return max / (total / float64(w))
}

// ledgerTolerancePct is the closure criterion: the attributed layers must
// explain the end-to-end time to within this share.
const ledgerTolerancePct = 10

// unattributedPct is the share of the end-to-end time the attributed layer
// times do not explain, in percent (negative when they over-explain it).
func unattributedPct(endToEnd, attributed float64) float64 {
	if endToEnd == 0 {
		return 0
	}
	return 100 * (endToEnd - attributed) / endToEnd
}

// ledgerCloses reports whether an unattributed share is within tolerance.
func ledgerCloses(pct float64) bool { return math.Abs(pct) <= ledgerTolerancePct }
