package stats

import (
	"fmt"
	"math"
)

// Window is a fixed-capacity sliding window over float64 observations with
// O(1) suffix sums. The change-point detector (Section 3.1) keeps the last m
// interarrival or decoding times in a Window; the likelihood statistic only
// needs suffix sums Σ_{j=k+1..m} x_j, which SuffixSum serves in O(1) from a
// prefix ring instead of re-scanning the window — the incremental path that
// makes the on-line detector's per-sample bookkeeping constant-time.
//
// The stream prefix is maintained with Neumaier-compensated summation, so it
// does not drift as samples are pushed: on exact binary fractions the
// compensation term stays zero and the suffix sums match a from-scratch
// recomputation bit for bit (the property tests rely on this), and on
// general data the error stays at rounding level instead of accumulating
// with stream length.
type Window struct {
	buf []float64
	// pre[slot] is the collapsed stream prefix total — every observation
	// pushed since the last Reset, up to but not including buf[slot]. The
	// suffix sum of the newest n observations is then the current prefix
	// total minus pre[slot of the (n-th newest)]: all evicted history is
	// common to both terms and cancels exactly in real arithmetic, and to
	// within one rounding of the prefix magnitude in floats.
	pre   []float64
	head  int // index of the oldest element
	count int
	// psum/pcomp: compensated stream prefix since the last Reset (grows
	// monotonically for non-negative samples; never decremented).
	psum, pcomp float64
}

// NewWindow returns an empty window with the given capacity (the paper's m).
// It panics if capacity < 1.
func NewWindow(capacity int) *Window {
	if capacity < 1 {
		panic("stats: window capacity must be >= 1")
	}
	return &Window{buf: make([]float64, capacity), pre: make([]float64, capacity)}
}

// neumaierAdd adds x to the compensated accumulator (sum, comp): the running
// total is sum+comp, with comp capturing the low-order bits an uncompensated
// add would discard (Neumaier's variant of Kahan summation, which also
// handles |x| > |sum|).
func neumaierAdd(sum, comp, x float64) (float64, float64) {
	t := sum + x
	if math.Abs(sum) >= math.Abs(x) {
		comp += (sum - t) + x
	} else {
		comp += (x - t) + sum
	}
	return t, comp
}

// Push appends an observation, evicting the oldest if the window is full.
func (w *Window) Push(x float64) {
	prefix := w.psum + w.pcomp
	w.psum, w.pcomp = neumaierAdd(w.psum, w.pcomp, x)
	if w.count == len(w.buf) {
		w.buf[w.head] = x
		w.pre[w.head] = prefix
		w.head = (w.head + 1) % len(w.buf)
		return
	}
	slot := (w.head + w.count) % len(w.buf)
	w.buf[slot] = x
	w.pre[slot] = prefix
	w.count++
}

// Len returns the number of stored observations.
func (w *Window) Len() int { return w.count }

// Cap returns the window capacity.
func (w *Window) Cap() int { return len(w.buf) }

// SuffixSum returns the sum of the newest n observations in O(1), as the
// difference between the compensated stream prefix and the prefix recorded
// when the (n-th newest) observation was pushed. It panics if n is negative
// or exceeds Len().
//
// For non-negative samples the result can differ from a direct scan of the
// suffix by at most one rounding of the prefix magnitude; callers that divide
// by a suffix sum should guard for a (tiny, rounding-level) non-positive
// result exactly as they would for genuinely zero samples.
func (w *Window) SuffixSum(n int) float64 {
	if n < 0 || n > w.count {
		panic(fmt.Sprintf("stats: suffix length %d out of range [0,%d]", n, w.count))
	}
	if n == 0 {
		return 0
	}
	idx := (w.head + w.count - n) % len(w.buf)
	return (w.psum + w.pcomp) - w.pre[idx]
}

// Prefix returns the compensated stream prefix: the total of every
// observation pushed since the last Reset. SuffixSum(n) is exactly
// Prefix() - PrefixAt(Len()-n).
func (w *Window) Prefix() float64 { return w.psum + w.pcomp }

// PrefixAt returns the stream prefix recorded when the i-th stored
// observation (0 being the oldest) was pushed: the total of everything
// pushed since the last Reset and before it. It panics if out of range.
func (w *Window) PrefixAt(i int) float64 {
	if i < 0 || i >= w.count {
		panic(fmt.Sprintf("stats: window index %d out of range [0,%d)", i, w.count))
	}
	return w.pre[(w.head+i)%len(w.buf)]
}

// Values returns the window contents oldest-first as a fresh slice.
func (w *Window) Values() []float64 {
	out := make([]float64, w.count)
	for i := 0; i < w.count; i++ {
		out[i] = w.buf[(w.head+i)%len(w.buf)]
	}
	return out
}

// Reset empties the window and clears the stream prefix.
func (w *Window) Reset() {
	w.head, w.count = 0, 0
	w.psum, w.pcomp = 0, 0
}

// Keep trims the window in place to its newest n observations, as if it were
// Reset and those observations pushed again oldest-first: the stream prefix
// restarts at zero and each kept observation's recorded prefix is recomputed
// with the same compensated additions a re-push performs, so SuffixSum,
// PrefixAt, Values and later pushes match that rebuild bit for bit. It panics
// if n is negative or exceeds Len().
func (w *Window) Keep(n int) {
	if n < 0 || n > w.count {
		panic(fmt.Sprintf("stats: keep length %d out of range [0,%d]", n, w.count))
	}
	w.head = (w.head + w.count - n) % len(w.buf)
	w.count = n
	w.psum, w.pcomp = 0, 0
	for i := 0; i < n; i++ {
		slot := (w.head + i) % len(w.buf)
		w.pre[slot] = w.psum + w.pcomp
		w.psum, w.pcomp = neumaierAdd(w.psum, w.pcomp, w.buf[slot])
	}
}
