package stats

import (
	"fmt"
	"math"
	"testing"
)

// windowDiff describes the first observable on which two windows differ bit
// for bit — Len, Prefix, every SuffixSum, every PrefixAt, Values — or
// returns "" when they agree on all of them.
func windowDiff(a, b *Window) string {
	bits := math.Float64bits
	if a.Len() != b.Len() {
		return fmt.Sprintf("Len %d vs %d", a.Len(), b.Len())
	}
	if bits(a.Prefix()) != bits(b.Prefix()) {
		return fmt.Sprintf("Prefix %v vs %v", a.Prefix(), b.Prefix())
	}
	for k := 0; k <= a.Len(); k++ {
		if x, y := a.SuffixSum(k), b.SuffixSum(k); bits(x) != bits(y) {
			return fmt.Sprintf("SuffixSum(%d) %v vs %v", k, x, y)
		}
	}
	for i := 0; i < a.Len(); i++ {
		if x, y := a.PrefixAt(i), b.PrefixAt(i); bits(x) != bits(y) {
			return fmt.Sprintf("PrefixAt(%d) %v vs %v", i, x, y)
		}
	}
	av, bv := a.Values(), b.Values()
	for i := range av {
		if bits(av[i]) != bits(bv[i]) {
			return fmt.Sprintf("Values[%d] %v vs %v", i, av[i], bv[i])
		}
	}
	return ""
}

// TestKeepMatchesResetAndRepush: trimming in place must equal Reset plus
// re-pushing the newest n observations oldest-first, bit for bit, for every
// n at every ring offset of a partial or full window, and the two must stay
// equal as further samples are pushed past capacity. The samples span many
// orders of magnitude, so the compensation term is exercised.
func TestKeepMatchesResetAndRepush(t *testing.T) {
	rng := NewRNG(11)
	sample := func() float64 {
		switch rng.Intn(3) {
		case 0:
			return rng.Exp(40)
		case 1:
			return rng.Exp(0.01)
		default:
			return rng.Pareto(0.001, 1.1)
		}
	}
	for _, capacity := range []int{1, 2, 7, 16} {
		// fill < capacity leaves a partial window; fill in [capacity,
		// 2·capacity) puts the oldest sample at every ring slot in turn.
		for fill := 0; fill < 2*capacity; fill++ {
			src := make([]float64, fill)
			for i := range src {
				src[i] = sample()
			}
			for n := 0; n <= min(fill, capacity); n++ {
				trimmed, rebuilt := NewWindow(capacity), NewWindow(capacity)
				for _, x := range src {
					trimmed.Push(x)
					rebuilt.Push(x)
				}
				trimmed.Keep(n)
				post := rebuilt.Values()[rebuilt.Len()-n:]
				rebuilt.Reset()
				for _, x := range post {
					rebuilt.Push(x)
				}
				if d := windowDiff(trimmed, rebuilt); d != "" {
					t.Fatalf("cap %d fill %d Keep(%d): %s", capacity, fill, n, d)
				}
				for p := 0; p < capacity+2; p++ {
					x := sample()
					trimmed.Push(x)
					rebuilt.Push(x)
					if d := windowDiff(trimmed, rebuilt); d != "" {
						t.Fatalf("cap %d fill %d Keep(%d), push %d after: %s", capacity, fill, n, p, d)
					}
				}
			}
		}
	}
}
