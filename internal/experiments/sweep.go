package experiments

import (
	"context"
	"fmt"
	"strings"

	"smartbadge/internal/device"
	"smartbadge/internal/dpm"
	"smartbadge/internal/parallel"
	"smartbadge/internal/units"
)

// WakeProbPoint is one point of the performance-constrained DPM sweep.
type WakeProbPoint struct {
	// MaxWakeProb is the constraint: at most this fraction of idle periods
	// may end with a wake-up penalty.
	MaxWakeProb float64
	// TimeoutS is the constrained-optimal timeout.
	TimeoutS float64
	// EnergyKJ is the measured total energy.
	EnergyKJ float64
	// Sleeps counts transitions taken.
	Sleeps int
	// MeasuredWakeProb is the realised fraction of idle periods that slept
	// (every sleep ends in a wake-up).
	MeasuredWakeProb float64
	// MeanDelayS is the measured mean frame delay.
	MeanDelayS float64
}

// idleCounter counts idle periods so the realised wake probability can be
// computed; it delegates decisions to the wrapped policy.
type idleCounter struct {
	inner dpm.Policy
	idles int
}

func (c *idleCounter) Decide(oracleIdle float64) dpm.Decision {
	c.idles++
	return c.inner.Decide(oracleIdle)
}
func (c *idleCounter) ObserveIdle(d float64) { c.inner.ObserveIdle(d) }
func (c *idleCounter) Name() string          { return c.inner.Name() }

// WakeProbSweep measures the energy cost of the paper's performance
// constraint: the DPM timeout is the minimum-energy timeout subject to
// "wake-up penalty in at most p of idle periods", swept over p on the
// combined Table 5 workload (with ideal-detection DVS held fixed).
// Constraint points run concurrently on up to workers goroutines (<= 0
// selects runtime.GOMAXPROCS(0), 1 runs serially) and stop starting once
// ctx is done. Each point simulates independently on the shared read-only
// trace and idle model, so the sweep is identical for any worker count.
func WakeProbSweep(ctx context.Context, seed uint64, probs []float64, workers int) ([]WakeProbPoint, error) {
	if len(probs) == 0 {
		return nil, fmt.Errorf("experiments: no constraint points")
	}
	tr, err := Table5Workload(seed)
	if err != nil {
		return nil, err
	}
	costs := dpm.CostsForBadge(device.SmartBadge(), device.Standby)
	idleModel := tr.IdleModel()
	return parallel.Map(ctx, workers, len(probs), func(i int) (WakeProbPoint, error) {
		p := probs[i]
		tau, err := dpm.ConstrainedTimeout(idleModel, costs, p)
		if err != nil {
			return WakeProbPoint{}, err
		}
		pol, err := dpm.NewFixedTimeout(tau, device.Standby)
		if err != nil {
			return WakeProbPoint{}, err
		}
		counter := &idleCounter{inner: pol}
		res, err := RunPolicy(Ideal, MixedApp(), tr, counter, nil)
		if err != nil {
			return WakeProbPoint{}, err
		}
		pt := WakeProbPoint{
			MaxWakeProb: p,
			TimeoutS:    tau,
			EnergyKJ:    units.JToKJ(res.EnergyJ),
			Sleeps:      res.Sleeps,
			MeanDelayS:  res.FrameDelay.Mean(),
		}
		if counter.idles > 0 {
			pt.MeasuredWakeProb = float64(res.Sleeps) / float64(counter.idles)
		}
		return pt, nil
	})
}

// FormatWakeProbSweep renders the sweep.
func FormatWakeProbSweep(points []WakeProbPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Performance-constrained DPM sweep (combined workload)\n")
	fmt.Fprintf(&b, "%12s %12s %12s %8s %12s %12s\n",
		"max P(wake)", "timeout (s)", "energy (kJ)", "sleeps", "P(wake) got", "delay (s)")
	for _, p := range points {
		fmt.Fprintf(&b, "%12g %12.3f %12.3f %8d %12.4f %12.3f\n",
			p.MaxWakeProb, p.TimeoutS, p.EnergyKJ, p.Sleeps, p.MeasuredWakeProb, p.MeanDelayS)
	}
	return b.String()
}
