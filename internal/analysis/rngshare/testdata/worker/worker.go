// Package worker is rngshare's golden package: stats.RNG values captured
// by closures handed to internal/parallel must only appear as SplitAt
// receivers.
package worker

import (
	"context"

	"smartbadge/internal/parallel"
	"smartbadge/internal/stats"
)

// shared draws directly from a captured generator: the sample each worker
// sees depends on scheduling.
func shared(ctx context.Context, workers, n int) []float64 {
	rng := stats.NewRNG(1)
	out := make([]float64, n)
	_ = parallel.ForEach(ctx, workers, n, func(i int) error {
		out[i] = rng.Float64() // want `captured by a parallel worker closure`
		return nil
	})
	return out
}

// forwarded hides the generator inside a helper call: the analyzer cannot
// see what the helper does, so forwarding is flagged too.
func forwarded(ctx context.Context, workers, n int) error {
	rng := stats.NewRNG(2)
	return parallel.ForEach(ctx, workers, n, func(i int) error {
		return consume(rng, i) // want `captured by a parallel worker closure`
	})
}

// split uses Split, which advances the shared state — order-dependent.
func split(ctx context.Context, workers, n int) error {
	rng := stats.NewRNG(3)
	return parallel.ForEach(ctx, workers, n, func(i int) error {
		r := rng.Split() // want `captured by a parallel worker closure`
		_ = r.Float64()
		return nil
	})
}

func consume(r *stats.RNG, i int) error {
	_ = r.Float64()
	return nil
}

// derived is the sanctioned pattern: a per-index stream via SplitAt.
func derived(ctx context.Context, workers, n int) ([]float64, error) {
	base := stats.NewRNG(4)
	return parallel.Map(ctx, workers, n, func(i int) (float64, error) {
		r := base.SplitAt(uint64(i))
		return r.Float64(), nil
	})
}

// local generators constructed inside the closure are fine.
func local(ctx context.Context, workers, n int) ([]float64, error) {
	return parallel.Map(ctx, workers, n, func(i int) (float64, error) {
		r := stats.NewRNG(uint64(i))
		return r.Float64(), nil
	})
}

// allowed demonstrates the escape hatch.
func allowed(ctx context.Context, workers, n int) []float64 {
	rng := stats.NewRNG(5)
	out := make([]float64, n)
	_ = parallel.ForEach(ctx, 1, n, func(i int) error {
		//lint:allow rngshare single worker pinned; golden case
		out[i] = rng.Float64()
		return nil
	})
	return out
}
