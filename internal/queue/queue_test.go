package queue

import (
	"math"
	"testing"
	"testing/quick"

	"smartbadge/internal/stats"
)

func TestMM1MeanDelay(t *testing.T) {
	q := MM1{Lambda: 20, Mu: 30}
	if got := q.MeanDelay(); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("mean delay = %v, want 0.1", got)
	}
	// Equation 5's two forms agree: (1/µ)/(1-ρ) == 1/(µ-λ).
	alt := (1 / q.Mu) / (1 - q.Utilisation())
	if math.Abs(q.MeanDelay()-alt) > 1e-12 {
		t.Errorf("Equation 5 forms disagree: %v vs %v", q.MeanDelay(), alt)
	}
}

func TestMM1Unstable(t *testing.T) {
	for _, q := range []MM1{{Lambda: 30, Mu: 30}, {Lambda: 40, Mu: 30}, {Lambda: 1, Mu: 0}} {
		if q.Stable() {
			t.Errorf("%+v should be unstable", q)
		}
		if !math.IsInf(q.MeanDelay(), 1) {
			t.Errorf("%+v: delay should be +Inf", q)
		}
		if !math.IsInf(q.MeanQueueLength(), 1) {
			t.Errorf("%+v: queue length should be +Inf", q)
		}
		if q.ProbEmpty() != 0 {
			t.Errorf("%+v: ProbEmpty should be 0", q)
		}
	}
}

func TestMM1QueueLengthLittlesLaw(t *testing.T) {
	q := MM1{Lambda: 24, Mu: 30}
	// L = λ·W
	if got, want := q.MeanQueueLength(), q.Lambda*q.MeanDelay(); math.Abs(got-want) > 1e-12 {
		t.Errorf("L = %v, λW = %v", got, want)
	}
	if got := q.ProbEmpty(); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("ProbEmpty = %v, want 0.2", got)
	}
}

func TestRequiredServiceRate(t *testing.T) {
	mu, err := RequiredServiceRate(20, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mu-30) > 1e-12 {
		t.Errorf("required rate = %v, want 30", mu)
	}
	// The returned rate must actually achieve the target.
	q := MM1{Lambda: 20, Mu: mu}
	if math.Abs(q.MeanDelay()-0.1) > 1e-12 {
		t.Errorf("achieved delay = %v, want 0.1", q.MeanDelay())
	}
}

func TestRequiredServiceRateErrors(t *testing.T) {
	if _, err := RequiredServiceRate(20, 0); err == nil {
		t.Error("zero target accepted")
	}
	if _, err := RequiredServiceRate(-1, 0.1); err == nil {
		t.Error("negative arrival rate accepted")
	}
}

// Property: for any stable parameters, RequiredServiceRate inverts MeanDelay.
func TestRequiredServiceRateRoundTrip(t *testing.T) {
	prop := func(l, d float64) bool {
		lambda := math.Abs(math.Mod(l, 100))
		delay := 0.01 + math.Abs(math.Mod(d, 5))
		mu, err := RequiredServiceRate(lambda, delay)
		if err != nil {
			return false
		}
		q := MM1{Lambda: lambda, Mu: mu}
		return q.Stable() && math.Abs(q.MeanDelay()-delay) < 1e-9*(1+delay)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestDelayToBufferedFrames(t *testing.T) {
	// The paper: 0.1 s at ~20 fr/s ≈ 2 extra video frames.
	if got := DelayToBufferedFrames(20, 0.1); math.Abs(got-2) > 1e-12 {
		t.Errorf("buffered frames = %v, want 2", got)
	}
}

// Simulate an M/M/1 queue and verify the analytic mean delay — this is the
// core assumption behind the paper's frequency policy.
func TestMM1SimulationMatchesAnalytic(t *testing.T) {
	r := stats.NewRNG(2024)
	const lambda, mu = 20.0, 30.0
	const n = 200000
	tArr, tDone := 0.0, 0.0
	var delay stats.Moments
	for i := 0; i < n; i++ {
		tArr += r.Exp(lambda)
		start := tArr
		if tDone > start {
			start = tDone
		}
		tDone = start + r.Exp(mu)
		delay.Add(tDone - tArr)
	}
	want := MM1{Lambda: lambda, Mu: mu}.MeanDelay()
	if rel := math.Abs(delay.Mean()-want) / want; rel > 0.05 {
		t.Errorf("simulated delay = %v, analytic = %v (rel err %v)", delay.Mean(), want, rel)
	}
}

func TestBufferFIFO(t *testing.T) {
	b := NewBuffer()
	if !b.Empty() {
		t.Fatal("new buffer not empty")
	}
	for i := 0; i < 5; i++ {
		b.Push(Frame{Seq: i, ArrivalTime: float64(i)})
	}
	if b.Len() != 5 || b.Peak() != 5 {
		t.Fatalf("len/peak = %d/%d, want 5/5", b.Len(), b.Peak())
	}
	if b.Peek().Seq != 0 {
		t.Errorf("peek = %d, want 0", b.Peek().Seq)
	}
	for i := 0; i < 5; i++ {
		f := b.Pop()
		if f.Seq != i {
			t.Errorf("pop %d: seq = %d", i, f.Seq)
		}
	}
	if !b.Empty() {
		t.Error("buffer should be empty")
	}
}

func TestBufferPanicsWhenEmpty(t *testing.T) {
	for i, f := range []func(){
		func() { NewBuffer().Pop() },
		func() { NewBuffer().Peek() },
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

// Property: any interleaving of pushes and pops preserves FIFO order, and Len
// equals pushes minus pops. Exercises the compaction path.
func TestBufferFIFOProperty(t *testing.T) {
	prop := func(ops []bool) bool {
		b := NewBuffer()
		next := 0
		expect := 0
		for _, push := range ops {
			if push || b.Empty() {
				b.Push(Frame{Seq: next})
				next++
			} else {
				if b.Pop().Seq != expect {
					return false
				}
				expect++
			}
			if b.Len() != next-expect {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestBufferCompaction(t *testing.T) {
	b := NewBuffer()
	// Push and pop enough to trigger the compaction branch repeatedly.
	for i := 0; i < 10000; i++ {
		b.Push(Frame{Seq: i})
	}
	for i := 0; i < 10000; i++ {
		if f := b.Pop(); f.Seq != i {
			t.Fatalf("pop %d: seq = %d after compaction", i, f.Seq)
		}
	}
}
