package stats

import (
	"testing"
)

// naiveWindow is the reference model for Window: a plain slice trimmed to
// capacity, with every query recomputed from scratch.
type naiveWindow struct {
	cap    int
	values []float64
}

func (n *naiveWindow) push(x float64) {
	n.values = append(n.values, x)
	if len(n.values) > n.cap {
		n.values = n.values[1:]
	}
}

func (n *naiveWindow) suffixSum(k int) float64 {
	s := 0.0
	for _, v := range n.values[len(n.values)-k:] {
		s += v
	}
	return s
}

// TestWindowMatchesNaiveModel drives Window and the slice model through the
// same long interleaved Push/Reset sequence — past capacity many times over —
// and checks every accessor against the model after each operation. Samples
// are exact binary fractions so every suffix sum must match bit for bit.
func TestWindowMatchesNaiveModel(t *testing.T) {
	for _, capacity := range []int{1, 2, 3, 7, 16} {
		rng := NewRNG(uint64(1000 + capacity)) // distinct seed per capacity
		w := NewWindow(capacity)
		model := &naiveWindow{cap: capacity}
		const ops = 5000
		for op := 0; op < ops; op++ {
			// Occasionally reset, as the detector does after a detection.
			if rng.Intn(97) == 0 {
				w.Reset()
				model.values = model.values[:0]
			} else {
				x := float64(rng.Intn(4096)) / 64
				w.Push(x)
				model.push(x)
			}
			if w.Len() != len(model.values) {
				t.Fatalf("cap %d op %d: Len %d, model %d", capacity, op, w.Len(), len(model.values))
			}
			if w.Cap() != capacity {
				t.Fatalf("cap %d op %d: Cap %d", capacity, op, w.Cap())
			}
			vals := w.Values()
			if len(vals) != len(model.values) {
				t.Fatalf("cap %d op %d: Values len %d, model %d", capacity, op, len(vals), len(model.values))
			}
			for i, v := range model.values {
				if vals[i] != v {
					t.Fatalf("cap %d op %d: Values[%d] = %v, model %v", capacity, op, i, vals[i], v)
				}
			}
			for n := 0; n <= len(model.values); n++ {
				if got, want := w.SuffixSum(n), model.suffixSum(n); got != want {
					t.Fatalf("cap %d op %d: SuffixSum(%d) = %v, model %v", capacity, op, n, got, want)
				}
			}
		}
	}
}

// TestWindowPanicsStayPanics pins the out-of-range contracts the detector
// relies on.
func TestWindowOutOfRangePanics(t *testing.T) {
	w := NewWindow(4)
	w.Push(1)
	for _, fn := range []func(){
		func() { w.PrefixAt(-1) },
		func() { w.PrefixAt(1) },
		func() { w.SuffixSum(-1) },
		func() { w.SuffixSum(2) },
		func() { NewWindow(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}
