package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestWindowFillAndEvict(t *testing.T) {
	w := NewWindow(3)
	if w.Len() != 0 || w.Cap() != 3 {
		t.Fatalf("new window: len %d cap %d, want 0 and 3", w.Len(), w.Cap())
	}
	w.Push(1)
	w.Push(2)
	w.Push(3)
	if w.Len() != 3 {
		t.Fatal("window should be full with 3 elements")
	}
	if s := w.SuffixSum(w.Len()); s != 6 {
		t.Errorf("sum = %v, want 6", s)
	}
	w.Push(4)
	if w.Len() != 3 {
		t.Errorf("len after eviction = %d, want 3", w.Len())
	}
	if s := w.SuffixSum(w.Len()); s != 9 {
		t.Errorf("sum after eviction = %v, want 9", s)
	}
	vals := w.Values()
	want := []float64{2, 3, 4}
	for i := range want {
		if vals[i] != want[i] {
			t.Errorf("values[%d] = %v, want %v", i, vals[i], want[i])
		}
	}
}

func TestWindowAtAndSuffixSum(t *testing.T) {
	w := NewWindow(4)
	for _, x := range []float64{10, 20, 30, 40, 50} { // 10 evicted
		w.Push(x)
	}
	if v := w.Values(); v[0] != 20 || v[3] != 50 {
		t.Errorf("oldest and newest = %v %v, want 20 50", v[0], v[3])
	}
	if s := w.SuffixSum(2); s != 90 {
		t.Errorf("suffix(2) = %v, want 90", s)
	}
	if s := w.SuffixSum(0); s != 0 {
		t.Errorf("suffix(0) = %v, want 0", s)
	}
	if s := w.SuffixSum(4); s != 140 {
		t.Errorf("suffix(4) = %v, want 140", s)
	}
}

func TestWindowReset(t *testing.T) {
	w := NewWindow(2)
	w.Push(1)
	w.Push(2)
	w.Reset()
	if w.Len() != 0 || w.Prefix() != 0 {
		t.Error("reset did not clear window")
	}
	w.Push(5)
	if v := w.Values(); len(v) != 1 || v[0] != 5 || w.SuffixSum(1) != 5 {
		t.Error("push after reset broken")
	}
}

func TestWindowPanics(t *testing.T) {
	for i, f := range []func(){
		func() { NewWindow(0) },
		func() { NewWindow(2).PrefixAt(0) },
		func() { NewWindow(2).SuffixSum(1) },
		func() { NewWindow(2).SuffixSum(-1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			f()
		}()
	}
}

// Property: SuffixSum(Len()) always equals the sum of Values, and
// SuffixSum(n) equals the naive sum of the newest n, for any push sequence.
func TestWindowSumInvariantProperty(t *testing.T) {
	prop := func(xs []float64, capSeed uint8) bool {
		capacity := int(capSeed%16) + 1
		w := NewWindow(capacity)
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				continue
			}
			x = math.Mod(x, 1e6)
			w.Push(x)
			vals := w.Values()
			sum := 0.0
			for _, v := range vals {
				sum += v
			}
			if math.Abs(sum-w.SuffixSum(w.Len())) > 1e-6*(1+math.Abs(sum)) {
				return false
			}
			n := len(vals) / 2
			suffix := 0.0
			for _, v := range vals[len(vals)-n:] {
				suffix += v
			}
			if math.Abs(suffix-w.SuffixSum(n)) > 1e-6*(1+math.Abs(suffix)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
