package parallel

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"smartbadge/internal/stats"
)

func TestWorkersDefault(t *testing.T) {
	if w := Workers(0); w < 1 {
		t.Errorf("Workers(0) = %d, want >= 1", w)
	}
	if w := Workers(-3); w < 1 {
		t.Errorf("Workers(-3) = %d, want >= 1", w)
	}
	if w := Workers(7); w != 7 {
		t.Errorf("Workers(7) = %d", w)
	}
}

func TestForEachCoversEveryIndex(t *testing.T) {
	for _, workers := range []int{1, 2, 8, 100} {
		const n = 57
		hit := make([]atomic.Int32, n)
		if err := ForEach(context.Background(), workers, n, func(i int) error {
			hit[i].Add(1)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for i := range hit {
			if got := hit[i].Load(); got != 1 {
				t.Fatalf("workers=%d: index %d executed %d times", workers, i, got)
			}
		}
	}
}

func TestForEachEmpty(t *testing.T) {
	if err := ForEach(context.Background(), 4, 0, func(int) error { t.Fatal("called"); return nil }); err != nil {
		t.Fatal(err)
	}
}

func TestForEachErrorPropagatesAndCancels(t *testing.T) {
	sentinel := errors.New("boom")
	for _, workers := range []int{1, 4} {
		var ran atomic.Int32
		err := ForEach(context.Background(), workers, 1000, func(i int) error {
			ran.Add(1)
			if i == 3 {
				return fmt.Errorf("task %d: %w", i, sentinel)
			}
			return nil
		})
		if !errors.Is(err, sentinel) {
			t.Fatalf("workers=%d: error %v does not wrap sentinel", workers, err)
		}
		// Early cancellation: nowhere near all 1000 tasks should have run.
		// (The bound is loose — a worker can claim one more index between the
		// error and the stop flag.)
		if got := ran.Load(); got > 100 {
			t.Errorf("workers=%d: %d tasks ran after early error", workers, got)
		}
	}
}

func TestForEachJoinsMultipleErrors(t *testing.T) {
	// With workers == n, several tasks can fail before the stop flag is seen;
	// all recorded failures must surface through errors.Join.
	err := ForEach(context.Background(), 4, 4, func(i int) error { return fmt.Errorf("fail-%d", i) })
	if err == nil {
		t.Fatal("no error")
	}
}

// TestErrorShapeUnifiedAcrossWorkerCounts pins the fix for the serial fast
// path returning the bare first error while the pooled path returned an
// errors.Join aggregate: both paths must now wrap the task error identically,
// so callers get the same behaviour from errors.Is / == for any worker count.
func TestErrorShapeUnifiedAcrossWorkerCounts(t *testing.T) {
	sentinel := errors.New("boom")
	for _, workers := range []int{1, 4} {
		err := ForEach(context.Background(), workers, 8, func(i int) error {
			if i == 2 {
				return sentinel
			}
			return nil
		})
		if !errors.Is(err, sentinel) {
			t.Fatalf("workers=%d: error %v does not wrap sentinel", workers, err)
		}
		if err == sentinel { // identity comparison deliberate: the wrapped shape IS the assertion
			t.Fatalf("workers=%d: bare sentinel returned; want it wrapped via errors.Join on every path", workers)
		}
		var joined interface{ Unwrap() []error }
		if !errors.As(err, &joined) {
			t.Fatalf("workers=%d: error %T is not an errors.Join aggregate", workers, err)
		}
	}
}

// TestSerialErrorStopsLaterTasks pins the serial contract: the first error
// cancels the run, so only the first failure is ever observed and joined.
func TestSerialErrorStopsLaterTasks(t *testing.T) {
	var ran atomic.Int32
	err := ForEach(context.Background(), 1, 10, func(i int) error {
		ran.Add(1)
		return fmt.Errorf("fail-%d", i)
	})
	if got := ran.Load(); got != 1 {
		t.Fatalf("%d tasks ran past the first serial error", got)
	}
	if err == nil || err.Error() != "fail-0" {
		t.Fatalf("err = %v, want the single joined fail-0", err)
	}
}

func TestForEachCtxPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		var ran atomic.Int32
		err := ForEach(ctx, workers, 100, func(i int) error {
			ran.Add(1)
			return nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if got := ran.Load(); got != 0 {
			t.Errorf("workers=%d: %d tasks ran on a pre-cancelled context", workers, got)
		}
	}
}

// TestForEachCtxCancelMidRun cancels after the first task starts and asserts
// the fan-out stops promptly: running tasks finish, new ones never start.
func TestForEachCtxCancelMidRun(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var ran atomic.Int32
		err := ForEach(ctx, workers, 10_000, func(i int) error {
			cancel() // every task cancels; tasks in flight still complete
			ran.Add(1)
			return nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if got := ran.Load(); got > int32(2*workers) {
			t.Errorf("workers=%d: %d tasks ran after cancellation", workers, got)
		}
	}
}

// TestForEachCtxJoinsTaskErrorAndCtxError: a task failure and a cancellation
// can both be present; the caller must see both through errors.Is.
func TestForEachCtxJoinsTaskErrorAndCtxError(t *testing.T) {
	sentinel := errors.New("boom")
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		err := ForEach(ctx, workers, 100, func(i int) error {
			if i == 0 {
				cancel()
				return sentinel
			}
			return nil
		})
		if !errors.Is(err, sentinel) || !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want both sentinel and context.Canceled joined", workers, err)
		}
	}
}

func TestMapCtxCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out, err := Map(ctx, 4, 10, func(i int) (int, error) { return i, nil })
	if out != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("out=%v err=%v, want nil + context.Canceled", out, err)
	}
}

func TestMapIndexOrder(t *testing.T) {
	for _, workers := range []int{1, 3, 16} {
		got, err := Map(context.Background(), workers, 40, func(i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: slot %d = %d", workers, i, v)
			}
		}
	}
}

func TestMapError(t *testing.T) {
	out, err := Map(context.Background(), 4, 10, func(i int) (int, error) {
		if i == 5 {
			return 0, errors.New("nope")
		}
		return i, nil
	})
	if err == nil || out != nil {
		t.Fatalf("out=%v err=%v, want nil + error", out, err)
	}
}

// TestMapDeterministicAcrossWorkerCounts is the package's core guarantee:
// index-split RNG streams make the fan-out result independent of scheduling.
func TestMapDeterministicAcrossWorkerCounts(t *testing.T) {
	run := func(workers int) []float64 {
		base := stats.NewRNG(0xfeed)
		out, err := Map(context.Background(), workers, 64, func(i int) (float64, error) {
			rng := base.SplitAt(uint64(i))
			sum := 0.0
			for k := 0; k < 100; k++ {
				sum += rng.Exp(2)
			}
			return sum, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	want := run(1)
	for _, workers := range []int{2, 4, 8, 32} {
		got := run(workers)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: slot %d differs: %v != %v", workers, i, got[i], want[i])
			}
		}
	}
}
