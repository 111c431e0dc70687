// Package parallel is the bounded, deterministic fan-out layer used by every
// embarrassingly parallel Monte Carlo computation in this repository: the
// off-line change-point threshold characterisation, the seed-replicated table
// regeneration, the Pareto/wake-probability policy sweeps, and the
// fleet-scale batch engine.
//
// Determinism contract. Results are index-addressed: Map writes task i's
// result into slot i, so the output is independent of goroutine scheduling.
// Callers that need randomness derive one independent stream per index with
// stats.RNG.SplitAt(i) from a single base seed, which makes every result
// bit-for-bit identical whether the work runs on 1 worker or 64.
//
// Error contract. The first error cancels the pool (no new tasks start;
// running tasks finish), and all errors observed are aggregated with
// errors.Join in index order — on both the serial and the pooled path, so
// the returned error has the same wrapped shape for any worker count:
// compare with errors.Is/errors.As, never with ==. With one worker at most
// one error can ever be observed (nothing runs past the first failure); with
// W workers up to W tasks are already running when the first one fails and
// each may contribute its own error.
//
// Cancellation contract. Every entry point takes the caller's context and
// stops starting tasks once it is done; tasks already running finish (fn is
// never interrupted), and ctx.Err() is joined after any task errors, so
// errors.Is(err, context.Canceled/DeadlineExceeded) reports why the fan-out
// stopped early. A run that is not cancelled is bit-identical whatever
// context carried it.
package parallel

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a worker-count knob: values <= 0 select
// runtime.GOMAXPROCS(0), anything else is returned unchanged.
func Workers(requested int) int {
	if requested > 0 {
		return requested
	}
	return runtime.GOMAXPROCS(0)
}

// ForEach runs fn(0..n-1) on up to workers goroutines (workers <= 0 selects
// GOMAXPROCS) and blocks until every started task returns. The first error
// stops further tasks from starting; all errors observed are joined in index
// order (see the package comment for the exact semantics). Once ctx is done
// no new task starts, and ctx.Err() is joined after the task errors, so the
// caller can distinguish "a task failed" from "the request went away" with
// errors.Is. fn must be safe for concurrent invocation when workers != 1.
func ForEach(ctx context.Context, workers, n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	w := Workers(workers)
	if w > n {
		w = n
	}
	if w == 1 {
		// Serial fast path: no goroutines, same cancellation-point and
		// error-aggregation semantics as the pooled path below.
		var errs []error
		for i := 0; i < n; i++ {
			if ctx.Err() != nil {
				break
			}
			if err := fn(i); err != nil {
				errs = append(errs, err)
				break
			}
		}
		if err := ctx.Err(); err != nil {
			errs = append(errs, err)
		}
		return errors.Join(errs...)
	}
	var (
		next    atomic.Int64
		stopped atomic.Bool
		wg      sync.WaitGroup
	)
	errs := make([]error, n)
	done := ctx.Done()
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func() {
			defer wg.Done()
			for {
				if stopped.Load() {
					return
				}
				select {
				case <-done:
					return
				default:
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := fn(i); err != nil {
					errs[i] = err
					stopped.Store(true)
					return
				}
			}
		}()
	}
	wg.Wait()
	joined := errs
	if err := ctx.Err(); err != nil {
		joined = append(joined, err)
	}
	return errors.Join(joined...)
}

// Map runs fn over indices 0..n-1 with ForEach's scheduling and
// cancellation and returns the results in index order. On error — including
// cancellation — the partial results are discarded.
func Map[T any](ctx context.Context, workers, n int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := ForEach(ctx, workers, n, func(i int) error {
		v, err := fn(i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
