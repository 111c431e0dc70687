package experiments

import (
	"context"
	"fmt"
	"math"

	"smartbadge/internal/parallel"
)

// Metric summarises a quantity across independent workload realisations:
// mean, standard error and a 95 % normal-approximation confidence interval.
// The paper reports single measured runs; replication across seeds is how a
// simulation-based reproduction makes the same comparisons robust.
type Metric struct {
	Mean   float64
	StdErr float64
	Lo, Hi float64 // 95 % CI
	N      int
}

// String implements fmt.Stringer.
func (m Metric) String() string {
	return fmt.Sprintf("%.4g ± %.2g (95%% CI [%.4g, %.4g], n=%d)", m.Mean, 1.96*m.StdErr, m.Lo, m.Hi, m.N)
}

// Summarise computes the Metric of a sample.
func Summarise(samples []float64) Metric {
	n := len(samples)
	if n == 0 {
		return Metric{}
	}
	mean := 0.0
	for _, x := range samples {
		mean += x
	}
	mean /= float64(n)
	varSum := 0.0
	for _, x := range samples {
		varSum += (x - mean) * (x - mean)
	}
	se := 0.0
	if n > 1 {
		se = math.Sqrt(varSum / float64(n-1) / float64(n))
	}
	return Metric{Mean: mean, StdErr: se, Lo: mean - 1.96*se, Hi: mean + 1.96*se, N: n}
}

// Replicate evaluates f on n consecutive seeds and summarises the results.
// Replicas run concurrently on up to workers goroutines (<= 0 selects
// runtime.GOMAXPROCS(0), 1 runs serially) and stop starting once ctx is
// done; the summary is computed over the index-ordered samples, so the
// Metric is identical to a serial evaluation. f must be safe for concurrent
// invocation when more than one worker is in play: every experiment in this
// package constructs its simulator, controller and workload per call.
func Replicate(ctx context.Context, workers, n int, baseSeed uint64, f func(seed uint64) (float64, error)) (Metric, error) {
	if n < 1 {
		return Metric{}, fmt.Errorf("experiments: need at least one replica, got %d", n)
	}
	samples, err := parallel.Map(ctx, workers, n, func(i int) (float64, error) {
		return f(baseSeed + uint64(i))
	})
	if err != nil {
		return Metric{}, err
	}
	return Summarise(samples), nil
}

// Table5FactorReplicated measures the combined DVS+DPM saving factor (the
// paper's "factor of three") across n independent workload realisations.
func Table5FactorReplicated(ctx context.Context, baseSeed uint64, n int) (Metric, error) {
	return Replicate(ctx, 0, n, baseSeed, func(seed uint64) (float64, error) {
		rows, err := Table5(seed)
		if err != nil {
			return 0, err
		}
		return rows[3].Factor, nil // Both
	})
}

// Table3SavingReplicated measures the change-point policy's energy saving
// versus max performance on the first Table 3 sequence, across realisations.
func Table3SavingReplicated(ctx context.Context, baseSeed uint64, n int) (Metric, error) {
	return Replicate(ctx, 0, n, baseSeed, func(seed uint64) (float64, error) {
		rows, err := Table3(seed)
		if err != nil {
			return 0, err
		}
		cells := map[PolicyKind]DVSCell{}
		for _, c := range rows[0].Cells {
			cells[c.Policy] = c
		}
		return 1 - cells[ChangePoint].EnergyKJ/cells[Max].EnergyKJ, nil
	})
}

// ChangePointExcessReplicated measures the change-point policy's energy
// excess over ideal detection (fractional), across realisations — the
// paper's "very close to the ideal" claim quantified.
func ChangePointExcessReplicated(ctx context.Context, baseSeed uint64, n int) (Metric, error) {
	return Replicate(ctx, 0, n, baseSeed, func(seed uint64) (float64, error) {
		rows, err := Table3(seed)
		if err != nil {
			return 0, err
		}
		cells := map[PolicyKind]DVSCell{}
		for _, c := range rows[0].Cells {
			cells[c.Policy] = c
		}
		return cells[ChangePoint].EnergyKJ/cells[Ideal].EnergyKJ - 1, nil
	})
}
