package stats

import (
	"math"
	"testing"
)

// scanSuffixSum recomputes the sum of the newest n observations by direct
// scan — the naive reference the incremental prefix-ring path must agree
// with.
func scanSuffixSum(w *Window, n int) float64 {
	s := 0.0
	for i := w.Len() - n; i < w.Len(); i++ {
		s += w.At(i)
	}
	return s
}

// TestSuffixSumMatchesNaiveScan drives the window with samples spanning many
// orders of magnitude (exponential and heavy-tailed Pareto interarrival
// times, the detector's actual diet) far past capacity, interleaving resets,
// and checks every suffix sum against the naive scan. The incremental path
// reads a prefix difference, so it is not bit-identical to the scan on
// general data — but it must agree to rounding precision relative to the
// stream prefix magnitude, which is far tighter than anything the detection
// statistic can resolve.
func TestSuffixSumMatchesNaiveScan(t *testing.T) {
	for _, capacity := range []int{1, 7, 100} {
		rng := NewRNG(uint64(42 + capacity))
		w := NewWindow(capacity)
		prefix := 0.0 // running magnitude of the stream prefix since reset
		const ops = 20000
		for op := 0; op < ops; op++ {
			if rng.Intn(503) == 0 {
				w.Reset()
				prefix = 0
				continue
			}
			var x float64
			switch rng.Intn(3) {
			case 0:
				x = rng.Exp(40) // ~25 ms interarrival times
			case 1:
				x = rng.Exp(0.01) // rare long gaps, ~100 s
			default:
				x = rng.Pareto(0.001, 1.1) // heavy tail
			}
			w.Push(x)
			prefix += x
			// Check a rotating subset of suffix lengths (all of them every
			// step is O(ops·cap²)).
			for _, n := range []int{0, 1, w.Len() / 2, w.Len()} {
				got := w.SuffixSum(n)
				want := scanSuffixSum(w, n)
				tol := 1e-12 * (1 + math.Abs(prefix))
				if math.Abs(got-want) > tol {
					t.Fatalf("cap %d op %d: SuffixSum(%d) = %v, scan %v (|Δ|=%g > tol %g)",
						capacity, op, n, got, want, math.Abs(got-want), tol)
				}
			}
			if got, want := w.Sum(), scanSuffixSum(w, w.Len()); math.Abs(got-want) > 1e-12*(1+math.Abs(prefix)) {
				t.Fatalf("cap %d op %d: Sum = %v, scan %v", capacity, op, got, want)
			}
		}
	}
}

// TestCompensatedSumSurvivesMagnitudeSpread pins the reason the running sums
// are Neumaier-compensated: after a huge sample (1e16, above 2^53 spacing 1)
// passes through the window, the uncompensated update sum += x - evicted
// would have absorbed the small samples into the big one's rounding and
// returned ~0 for the remaining window; the compensated sum recovers the
// small samples' total exactly.
func TestCompensatedSumSurvivesMagnitudeSpread(t *testing.T) {
	w := NewWindow(4)
	w.Push(1e16)
	w.Push(1)
	w.Push(1)
	w.Push(1)
	w.Push(1) // evicts the 1e16
	if got := w.Sum(); got != 4 {
		t.Errorf("Sum after evicting the 1e16 = %v, want exactly 4", got)
	}
	if got := w.SuffixSum(4); got != 4 {
		t.Errorf("SuffixSum(4) after evicting the 1e16 = %v, want exactly 4", got)
	}
}

// TestSuffixSumO1 pins the complexity contract indirectly: SuffixSum must not
// allocate and must not scan (a window of capacity 1<<16 answers full-length
// suffix queries in the same number of operations as length-1 queries). The
// allocation check is the observable half; the scan-free property is what the
// detector's per-check cost relies on.
func TestSuffixSumDoesNotAllocate(t *testing.T) {
	w := NewWindow(1 << 16)
	rng := NewRNG(7)
	for i := 0; i < (1 << 16); i++ {
		w.Push(rng.Exp(1))
	}
	if avg := testing.AllocsPerRun(100, func() {
		_ = w.SuffixSum(w.Len())
		_ = w.SuffixSum(1)
		_ = w.Sum()
	}); avg != 0 {
		t.Errorf("SuffixSum/Sum allocated %v times per run, want 0", avg)
	}
}

// TestPrefixAccessorsMatchSuffixSum pins the contract the change-point
// detector's screens rely on: every suffix sum is bit-for-bit the current
// stream prefix minus the prefix recorded for the suffix's oldest sample,
// across wrap-around and resets, and PrefixAt rejects out-of-range indices.
func TestPrefixAccessorsMatchSuffixSum(t *testing.T) {
	rng := NewRNG(5)
	w := NewWindow(7)
	for op := 0; op < 2000; op++ {
		if rng.Intn(97) == 0 {
			w.Reset()
			if w.Prefix() != 0 {
				t.Fatalf("op %d: prefix %v after Reset, want 0", op, w.Prefix())
			}
			continue
		}
		w.Push(rng.Exp(30))
		for n := 1; n <= w.Len(); n++ {
			if got, want := w.Prefix()-w.PrefixAt(w.Len()-n), w.SuffixSum(n); got != want {
				t.Fatalf("op %d: Prefix()-PrefixAt(%d) = %v, SuffixSum(%d) = %v", op, w.Len()-n, got, n, want)
			}
		}
		if w.PrefixAt(0) > w.PrefixAt(w.Len()-1) || w.PrefixAt(w.Len()-1) > w.Prefix() {
			t.Fatalf("op %d: prefixes not monotone for non-negative samples", op)
		}
	}
	for _, i := range []int{-1, w.Len()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("PrefixAt(%d) on a window of %d did not panic", i, w.Len())
				}
			}()
			w.PrefixAt(i)
		}()
	}
}
