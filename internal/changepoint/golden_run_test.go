package changepoint_test

import (
	"testing"

	"smartbadge"
	"smartbadge/internal/changepoint"
	"smartbadge/internal/device"
	"smartbadge/internal/experiments"
	"smartbadge/internal/policy"
	"smartbadge/internal/sa1100"
	"smartbadge/internal/sim"
	"smartbadge/internal/stats"
	"smartbadge/internal/workload"
)

// referenceEstimator drives the ReferenceDetector oracle as a policy
// estimator, mirroring policy.ChangePoint.
type referenceEstimator struct {
	det *changepoint.ReferenceDetector
}

func (e referenceEstimator) Observe(sample, _ float64) (float64, bool) {
	_, changed := e.det.Observe(sample)
	return e.det.CurrentRate(), changed
}
func (e referenceEstimator) Rate() float64      { return e.det.CurrentRate() }
func (e referenceEstimator) Reset(rate float64) { e.det.SetRate(rate) }
func (e referenceEstimator) Name() string       { return "changepoint" }

// TestIncrementalDetectorGoldenRun is the fault-free single-run regression
// for the detector's statistic path: a full MP3 simulation under the
// change-point policy must render a byte-identical report whether the
// detectors are the production ones (screened checks over O(1) suffix sums)
// or the reference oracle that recomputes the window statistics naively at
// every check. Both runs share one set of characterised thresholds, so the
// only difference is how a check evaluates the statistic.
func TestIncrementalDetectorGoldenRun(t *testing.T) {
	app := experiments.MP3App()
	clips, err := workload.MP3Sequence("ACEFBD")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := workload.Generate(stats.NewRNG(1), clips, workload.GenerateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	first := tr.Changes[0]

	characterise := func(grid []float64) (*changepoint.Thresholds, changepoint.Config) {
		cfg := changepoint.DefaultConfig(grid)
		cfg.CharacterisationWindows = 800
		th, err := changepoint.Characterise(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return th, cfg
	}
	arrTh, arrCfg := characterise(app.ArrivalGrid)
	srvTh, srvCfg := characterise(app.ServiceGrid)

	report := func(reference bool) string {
		mkEst := func(cfg changepoint.Config, th *changepoint.Thresholds, initial float64) policy.Estimator {
			if reference {
				det, err := changepoint.NewReferenceDetector(cfg, th, initial)
				if err != nil {
					t.Fatal(err)
				}
				return referenceEstimator{det}
			}
			det, err := changepoint.NewDetector(cfg, th, initial)
			if err != nil {
				t.Fatal(err)
			}
			return policy.NewChangePoint(det)
		}
		ctrl, err := policy.NewController(sa1100.Default(), app.Curve, app.TargetDelay,
			mkEst(arrCfg, arrTh, first.ArrivalRate),
			mkEst(srvCfg, srvTh, first.DecodeRateMax), false)
		if err != nil {
			t.Fatal(err)
		}
		ctrl.ResetRates(first.ArrivalRate, first.DecodeRateMax)
		res, err := sim.Run(sim.Config{
			Badge: device.SmartBadge(), Proc: sa1100.Default(),
			Trace: tr, Controller: ctrl, Kind: workload.MP3,
		})
		if err != nil {
			t.Fatal(err)
		}
		return smartbadge.FormatResult(res)
	}

	fast := report(false)
	slow := report(true)
	if fast != slow {
		t.Errorf("production and reference detectors rendered different reports:\n--- production ---\n%s\n--- reference ---\n%s", fast, slow)
	}
}
