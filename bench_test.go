// Benchmark harness: one benchmark per table and figure of the paper
// (regenerating the artifact and reporting its headline numbers as custom
// metrics), the ablation benchmarks DESIGN.md commits to, and
// micro-benchmarks of the hot paths.
//
// Run everything with:
//
//	go test -bench=. -benchmem
package smartbadge

import (
	"fmt"
	"testing"

	"smartbadge/internal/changepoint"
	"smartbadge/internal/device"
	"smartbadge/internal/dpm"
	"smartbadge/internal/experiments"
	"smartbadge/internal/fleet"
	"smartbadge/internal/perfmodel"
	"smartbadge/internal/policy"
	"smartbadge/internal/queue"
	"smartbadge/internal/sa1100"
	"smartbadge/internal/sim"
	"smartbadge/internal/stats"
	"smartbadge/internal/thrcache"
	"smartbadge/internal/tismdp"
	"smartbadge/internal/workload"
)

// --- Table and figure benchmarks -----------------------------------------

// BenchmarkTable1Device regenerates the SmartBadge component table.
func BenchmarkTable1Device(b *testing.B) {
	var total float64
	for i := 0; i < b.N; i++ {
		rows := experiments.Table1()
		total = rows[len(rows)-1].ActiveMW
	}
	b.ReportMetric(total, "total_active_mW")
}

// BenchmarkFig3FrequencyVoltage regenerates the SA-1100 V(f) curve.
func BenchmarkFig3FrequencyVoltage(b *testing.B) {
	var vmax float64
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig3()
		vmax = rows[len(rows)-1].VoltageV
	}
	b.ReportMetric(vmax, "v_at_fmax")
}

// BenchmarkFig4MP3Curve regenerates the MP3 performance/energy curve.
func BenchmarkFig4MP3Curve(b *testing.B) {
	var perfHalf float64
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig4()
		perfHalf = rows[3].PerfRatio
	}
	b.ReportMetric(perfHalf, "perf_at_103MHz")
}

// BenchmarkFig5MPEGCurve regenerates the MPEG performance/energy curve.
func BenchmarkFig5MPEGCurve(b *testing.B) {
	var eMin float64
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig5()
		eMin = rows[0].EnergyRatio
	}
	b.ReportMetric(eMin, "energy_ratio_at_fmin")
}

// BenchmarkFig6ArrivalFit regenerates the exponential interarrival fit.
func BenchmarkFig6ArrivalFit(b *testing.B) {
	var errPct float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig6(uint64(i) + 1)
		if err != nil {
			b.Fatal(err)
		}
		errPct = r.MeanAbsError * 100
	}
	b.ReportMetric(errPct, "fit_error_%")
}

// BenchmarkFig9RateFrequency regenerates the rate-vs-frequency sweep.
func BenchmarkFig9RateFrequency(b *testing.B) {
	var top float64
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig9()
		top = rows[len(rows)-1].WLANRate
	}
	b.ReportMetric(top, "wlan_rate_at_fmax")
}

// BenchmarkFig10Detection regenerates the detection transient.
func BenchmarkFig10Detection(b *testing.B) {
	var latency float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig10(uint64(i) + 1)
		if err != nil {
			b.Fatal(err)
		}
		latency = float64(r.ChangePointLatency)
	}
	b.ReportMetric(latency, "cp_latency_frames")
}

// BenchmarkTable2Clips regenerates the MP3 clip catalogue.
func BenchmarkTable2Clips(b *testing.B) {
	var rate float64
	for i := 0; i < b.N; i++ {
		rows := experiments.Table2()
		rate = rows[0].DecodeRate
	}
	b.ReportMetric(rate, "clipA_decode_rate")
}

// BenchmarkTable3MP3DVS regenerates the MP3 DVS comparison and reports the
// change-point-vs-max energy saving.
func BenchmarkTable3MP3DVS(b *testing.B) {
	var saving float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table3(uint64(i) + 1)
		if err != nil {
			b.Fatal(err)
		}
		cells := rows[0].Cells
		saving = 1 - cells[1].EnergyKJ/cells[3].EnergyKJ // CP vs Max
	}
	b.ReportMetric(saving*100, "cp_saving_vs_max_%")
}

// BenchmarkTable4MPEGDVS regenerates the MPEG DVS comparison.
func BenchmarkTable4MPEGDVS(b *testing.B) {
	var saving float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table4(uint64(i) + 1)
		if err != nil {
			b.Fatal(err)
		}
		cells := rows[0].Cells
		saving = 1 - cells[1].EnergyKJ/cells[3].EnergyKJ
	}
	b.ReportMetric(saving*100, "cp_saving_vs_max_%")
}

// BenchmarkTable5Combined regenerates the DVS+DPM comparison and reports the
// combined saving factor (the paper's headline "factor of three").
func BenchmarkTable5Combined(b *testing.B) {
	var factor float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table5(uint64(i) + 1)
		if err != nil {
			b.Fatal(err)
		}
		factor = rows[3].Factor // Both
	}
	b.ReportMetric(factor, "combined_factor")
}

// --- Ablation benchmarks ---------------------------------------------------

// ablationTrace is the common MP3 workload for detector ablations.
func ablationTrace(b *testing.B, seed uint64) *workload.Trace {
	b.Helper()
	clips, err := workload.MP3Sequence("ACEFBD")
	if err != nil {
		b.Fatal(err)
	}
	tr, err := workload.Generate(stats.NewRNG(seed), clips, workload.GenerateOptions{})
	if err != nil {
		b.Fatal(err)
	}
	return tr
}

// runDetectorAblation simulates the Table 3 scenario with a mutated
// change-point configuration and reports energy and delay.
func runDetectorAblation(b *testing.B, mutate func(*changepoint.Config)) {
	b.Helper()
	app := experiments.MP3App()
	mkEst := func(grid []float64, initial float64) policy.Estimator {
		cfg := changepoint.DefaultConfig(grid)
		cfg.CharacterisationWindows = 1500
		mutate(&cfg)
		th, err := changepoint.Characterise(cfg)
		if err != nil {
			b.Fatal(err)
		}
		det, err := changepoint.NewDetector(cfg, th, initial)
		if err != nil {
			b.Fatal(err)
		}
		return policy.NewChangePoint(det)
	}
	tr := ablationTrace(b, 1)
	first := tr.Changes[0]
	var energy, delay float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctrl, err := policy.NewController(sa1100.Default(), app.Curve, app.TargetDelay,
			mkEst(app.ArrivalGrid, first.ArrivalRate),
			mkEst(app.ServiceGrid, first.DecodeRateMax), false)
		if err != nil {
			b.Fatal(err)
		}
		ctrl.ResetRates(first.ArrivalRate, first.DecodeRateMax)
		res, err := sim.Run(sim.Config{
			Badge: device.SmartBadge(), Proc: sa1100.Default(),
			Trace: tr, Controller: ctrl, Kind: workload.MP3,
		})
		if err != nil {
			b.Fatal(err)
		}
		energy, delay = res.EnergyJ, res.FrameDelay.Mean()
	}
	b.ReportMetric(energy, "J")
	b.ReportMetric(delay*1000, "delay_ms")
}

// BenchmarkAblationWindowSize varies the detector window m (paper: 100).
func BenchmarkAblationWindowSize(b *testing.B) {
	for _, m := range []int{50, 100, 200} {
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			runDetectorAblation(b, func(c *changepoint.Config) { c.WindowSize = m })
		})
	}
}

// BenchmarkAblationCheckInterval varies the check interval k.
func BenchmarkAblationCheckInterval(b *testing.B) {
	for _, k := range []int{1, 5, 20} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			runDetectorAblation(b, func(c *changepoint.Config) { c.CheckInterval = k })
		})
	}
}

// BenchmarkAblationConfidence varies the detection confidence (paper: 99.5%).
func BenchmarkAblationConfidence(b *testing.B) {
	for _, conf := range []float64{0.95, 0.995, 0.9995} {
		b.Run(fmt.Sprintf("conf=%.4v", conf), func(b *testing.B) {
			runDetectorAblation(b, func(c *changepoint.Config) { c.Confidence = conf })
		})
	}
}

// BenchmarkAblationRateGrid varies the candidate rate grid resolution.
func BenchmarkAblationRateGrid(b *testing.B) {
	for _, n := range []int{4, 8, 16} {
		b.Run(fmt.Sprintf("grid=%d", n), func(b *testing.B) {
			app := experiments.MP3App()
			arr, err := changepoint.GeometricRates(6, 44, n)
			if err != nil {
				b.Fatal(err)
			}
			srv, err := changepoint.GeometricRates(60, 150, n)
			if err != nil {
				b.Fatal(err)
			}
			app.ArrivalGrid, app.ServiceGrid = arr, srv
			runDetectorAblationWithGrids(b, app)
		})
	}
}

func runDetectorAblationWithGrids(b *testing.B, app experiments.App) {
	b.Helper()
	tr := ablationTrace(b, 1)
	first := tr.Changes[0]
	mkEst := func(grid []float64, initial float64) policy.Estimator {
		cfg := changepoint.DefaultConfig(grid)
		cfg.CharacterisationWindows = 1500
		th, err := changepoint.Characterise(cfg)
		if err != nil {
			b.Fatal(err)
		}
		det, err := changepoint.NewDetector(cfg, th, initial)
		if err != nil {
			b.Fatal(err)
		}
		return policy.NewChangePoint(det)
	}
	var energy float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctrl, err := policy.NewController(sa1100.Default(), app.Curve, app.TargetDelay,
			mkEst(app.ArrivalGrid, first.ArrivalRate),
			mkEst(app.ServiceGrid, first.DecodeRateMax), false)
		if err != nil {
			b.Fatal(err)
		}
		ctrl.ResetRates(first.ArrivalRate, first.DecodeRateMax)
		res, err := sim.Run(sim.Config{
			Badge: device.SmartBadge(), Proc: sa1100.Default(),
			Trace: tr, Controller: ctrl, Kind: workload.MP3,
		})
		if err != nil {
			b.Fatal(err)
		}
		energy = res.EnergyJ
	}
	b.ReportMetric(energy, "J")
}

// BenchmarkAblationSwitchOverhead varies the frequency-switch latency
// (the OCR-ambiguous constant; default 150 µs).
func BenchmarkAblationSwitchOverhead(b *testing.B) {
	for _, lat := range []float64{0, 150e-6, 1e-3, 5e-3} {
		b.Run(fmt.Sprintf("latency=%v", lat), func(b *testing.B) {
			cfg := sa1100.DefaultConfig()
			cfg.SwitchLatency = lat
			proc := sa1100.MustNew(cfg)
			tr := ablationTrace(b, 1)
			first := tr.Changes[0]
			var energy, delay float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ctrl, err := policy.NewController(proc, perfmodel.MP3Curve(), 0.15,
					policy.NewIdeal(first.ArrivalRate), policy.NewIdeal(first.DecodeRateMax), false)
				if err != nil {
					b.Fatal(err)
				}
				ctrl.ResetRates(first.ArrivalRate, first.DecodeRateMax)
				res, err := sim.Run(sim.Config{
					Badge: device.SmartBadge(), Proc: proc,
					Trace: tr, Controller: ctrl, Kind: workload.MP3,
				})
				if err != nil {
					b.Fatal(err)
				}
				energy, delay = res.EnergyJ, res.FrameDelay.Mean()
			}
			b.ReportMetric(energy, "J")
			b.ReportMetric(delay*1000, "delay_ms")
		})
	}
}

// BenchmarkAblationDPMPolicies compares idle-state policies on the combined
// workload.
func BenchmarkAblationDPMPolicies(b *testing.B) {
	tr, err := experiments.Table5Workload(1)
	if err != nil {
		b.Fatal(err)
	}
	costs := dpm.CostsForBadge(device.SmartBadge(), device.Standby)
	idleModel := tr.IdleModel()
	policies := map[string]func() (dpm.Policy, error){
		"always-on": func() (dpm.Policy, error) { return dpm.AlwaysOn{}, nil },
		"timeout-be": func() (dpm.Policy, error) {
			return dpm.NewFixedTimeout(costs.BreakEven(), device.Standby)
		},
		"renewal": func() (dpm.Policy, error) {
			return dpm.NewRenewalTimeout(idleModel, costs, device.Standby, 0)
		},
		"tismdp": func() (dpm.Policy, error) {
			return tismdp.Solve(tismdp.Config{Idle: idleModel, Costs: costs, Target: device.Standby})
		},
		"oracle": func() (dpm.Policy, error) { return dpm.NewOracle(costs, device.Standby) },
	}
	for name, mk := range policies {
		b.Run(name, func(b *testing.B) {
			var energy float64
			var sleeps int
			for i := 0; i < b.N; i++ {
				pol, err := mk()
				if err != nil {
					b.Fatal(err)
				}
				res, err := experiments.RunPolicy(experiments.Ideal, experiments.MixedApp(), tr, pol)
				if err != nil {
					b.Fatal(err)
				}
				energy, sleeps = res.EnergyJ, res.Sleeps
			}
			b.ReportMetric(energy, "J")
			b.ReportMetric(float64(sleeps), "sleeps")
		})
	}
}

// BenchmarkAblationDelayTarget sweeps the M/M/1 delay target: the
// energy/latency Pareto curve of the frequency policy.
func BenchmarkAblationDelayTarget(b *testing.B) {
	tr := ablationTrace(b, 1)
	first := tr.Changes[0]
	for _, target := range []float64{0.05, 0.1, 0.15, 0.3, 0.6} {
		b.Run(fmt.Sprintf("W=%.2fs", target), func(b *testing.B) {
			var energy, delay float64
			for i := 0; i < b.N; i++ {
				ctrl, err := policy.NewController(sa1100.Default(), perfmodel.MP3Curve(), target,
					policy.NewIdeal(first.ArrivalRate), policy.NewIdeal(first.DecodeRateMax), false)
				if err != nil {
					b.Fatal(err)
				}
				ctrl.ResetRates(first.ArrivalRate, first.DecodeRateMax)
				res, err := sim.Run(sim.Config{
					Badge: device.SmartBadge(), Proc: sa1100.Default(),
					Trace: tr, Controller: ctrl, Kind: workload.MP3,
				})
				if err != nil {
					b.Fatal(err)
				}
				energy, delay = res.EnergyJ, res.FrameDelay.Mean()
			}
			b.ReportMetric(energy, "J")
			b.ReportMetric(delay*1000, "delay_ms")
		})
	}
}

// BenchmarkAblationHysteresis measures how the downswitch hysteresis tames
// the exponential-average policy's rung dithering on the MP3 workload.
func BenchmarkAblationHysteresis(b *testing.B) {
	tr := ablationTrace(b, 1)
	first := tr.Changes[0]
	for _, h := range []float64{0, 0.05, 0.15} {
		b.Run(fmt.Sprintf("h=%.2f", h), func(b *testing.B) {
			var energy, delay float64
			var switches int
			for i := 0; i < b.N; i++ {
				ctrl, err := policy.NewController(sa1100.Default(), perfmodel.MP3Curve(), 0.15,
					policy.NewExpAverage(experiments.ExpAvgGain, first.ArrivalRate),
					policy.NewExpAverage(experiments.ExpAvgGain, first.DecodeRateMax), false)
				if err != nil {
					b.Fatal(err)
				}
				ctrl.Hysteresis = h
				ctrl.ResetRates(first.ArrivalRate, first.DecodeRateMax)
				res, err := sim.Run(sim.Config{
					Badge: device.SmartBadge(), Proc: sa1100.Default(),
					Trace: tr, Controller: ctrl, Kind: workload.MP3,
				})
				if err != nil {
					b.Fatal(err)
				}
				energy, delay, switches = res.EnergyJ, res.FrameDelay.Mean(), res.Reconfigurations
			}
			b.ReportMetric(energy, "J")
			b.ReportMetric(delay*1000, "delay_ms")
			b.ReportMetric(float64(switches), "switches")
		})
	}
}

// BenchmarkAblationLadderResolution restricts the SA-1100 frequency ladder:
// a 2-point ladder is the classic "dual-speed" CPU, the full 12-point ladder
// is the SA-1100. Finer ladders track the demand more tightly and save more.
func BenchmarkAblationLadderResolution(b *testing.B) {
	full := sa1100.DefaultConfig().FrequenciesMHz
	ladders := map[string][]float64{
		"2-point":  {full[0], full[len(full)-1]},
		"4-point":  {full[0], full[3], full[7], full[len(full)-1]},
		"12-point": full,
	}
	tr := ablationTrace(b, 1)
	first := tr.Changes[0]
	for name, freqs := range ladders {
		b.Run(name, func(b *testing.B) {
			cfg := sa1100.DefaultConfig()
			cfg.FrequenciesMHz = freqs
			proc := sa1100.MustNew(cfg)
			var energy float64
			for i := 0; i < b.N; i++ {
				ctrl, err := policy.NewController(proc, perfmodel.MP3Curve(), 0.15,
					policy.NewIdeal(first.ArrivalRate), policy.NewIdeal(first.DecodeRateMax), false)
				if err != nil {
					b.Fatal(err)
				}
				ctrl.ResetRates(first.ArrivalRate, first.DecodeRateMax)
				res, err := sim.Run(sim.Config{
					Badge: device.SmartBadge(), Proc: proc,
					Trace: tr, Controller: ctrl, Kind: workload.MP3,
				})
				if err != nil {
					b.Fatal(err)
				}
				energy = res.EnergyJ
			}
			b.ReportMetric(energy, "J")
		})
	}
}

// BenchmarkAblationProcessor compares the SA-1100's fine 12-step ladder with
// a successor-generation 4-step (XScale-class) ladder on the same workload,
// assuming both decode the application at the same rate at their respective
// top frequencies.
func BenchmarkAblationProcessor(b *testing.B) {
	procs := map[string]*sa1100.Processor{
		"sa1100-12step": sa1100.Default(),
		"xscale-4step":  sa1100.MustNew(sa1100.XScaleConfig()),
	}
	tr := ablationTrace(b, 1)
	first := tr.Changes[0]
	for name, proc := range procs {
		b.Run(name, func(b *testing.B) {
			var cpuPower, delay float64
			for i := 0; i < b.N; i++ {
				ctrl, err := policy.NewController(proc, perfmodel.MP3Curve(), 0.15,
					policy.NewIdeal(first.ArrivalRate), policy.NewIdeal(first.DecodeRateMax), false)
				if err != nil {
					b.Fatal(err)
				}
				ctrl.ResetRates(first.ArrivalRate, first.DecodeRateMax)
				res, err := sim.Run(sim.Config{
					Badge: device.SmartBadge(), Proc: proc,
					Trace: tr, Controller: ctrl, Kind: workload.MP3,
				})
				if err != nil {
					b.Fatal(err)
				}
				cpuPower = res.EnergyByComponent[device.NameCPU] / res.SimTime
				delay = res.FrameDelay.Mean()
			}
			b.ReportMetric(cpuPower*1000, "cpu_mW")
			b.ReportMetric(delay*1000, "delay_ms")
		})
	}
}

// BenchmarkAblationTwoLevelDPM compares single-level standby policies with
// the two-level standby-then-off family on the combined workload.
func BenchmarkAblationTwoLevelDPM(b *testing.B) {
	tr, err := experiments.Table5Workload(1)
	if err != nil {
		b.Fatal(err)
	}
	badge := device.SmartBadge()
	sby := dpm.CostsForBadge(badge, device.Standby)
	off := dpm.CostsForBadge(badge, device.Off)
	idleModel := tr.IdleModel()
	policies := map[string]func() (dpm.Policy, error){
		"standby-renewal": func() (dpm.Policy, error) {
			return dpm.NewRenewalTimeout(idleModel, sby, device.Standby, 0)
		},
		"twolevel-renewal": func() (dpm.Policy, error) {
			return dpm.NewTwoLevelRenewal(idleModel, sby, off)
		},
		"dual-oracle": func() (dpm.Policy, error) { return dpm.NewDualOracle(sby, off) },
	}
	for name, mk := range policies {
		b.Run(name, func(b *testing.B) {
			var energy float64
			var sleeps, deepens int
			for i := 0; i < b.N; i++ {
				pol, err := mk()
				if err != nil {
					b.Fatal(err)
				}
				res, err := experiments.RunPolicy(experiments.Ideal, experiments.MixedApp(), tr, pol)
				if err != nil {
					b.Fatal(err)
				}
				energy, sleeps, deepens = res.EnergyJ, res.Sleeps, res.Deepens
			}
			b.ReportMetric(energy, "J")
			b.ReportMetric(float64(sleeps), "sleeps")
			b.ReportMetric(float64(deepens), "deepens")
		})
	}
}

// --- Micro-benchmarks -------------------------------------------------------

// BenchmarkDetectorObserve measures the per-sample cost of on-line detection.
func BenchmarkDetectorObserve(b *testing.B) {
	rates, err := changepoint.GeometricRates(10, 60, 8)
	if err != nil {
		b.Fatal(err)
	}
	cfg := changepoint.DefaultConfig(rates)
	cfg.CharacterisationWindows = 500
	th, err := changepoint.Characterise(cfg)
	if err != nil {
		b.Fatal(err)
	}
	det, err := changepoint.NewDetector(cfg, th, 20)
	if err != nil {
		b.Fatal(err)
	}
	rng := stats.NewRNG(1)
	samples := make([]float64, 4096)
	for i := range samples {
		samples[i] = rng.Exp(20)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, changed := det.Observe(samples[i%len(samples)]); changed {
			det.SetRate(20)
		}
	}
}

// BenchmarkCharacterise measures the off-line characterisation cost for one
// rate pair at the paper's settings.
func BenchmarkCharacterise(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := changepoint.DefaultConfig([]float64{10, 60})
		cfg.CharacterisationWindows = 1000
		cfg.Seed = uint64(i) + 1
		if _, err := changepoint.Characterise(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulatorThroughput measures simulated frames per wall second.
func BenchmarkSimulatorThroughput(b *testing.B) {
	tr := ablationTrace(b, 1)
	first := tr.Changes[0]
	frames := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctrl, err := policy.NewController(sa1100.Default(), perfmodel.MP3Curve(), 0.15,
			policy.NewIdeal(first.ArrivalRate), policy.NewIdeal(first.DecodeRateMax), false)
		if err != nil {
			b.Fatal(err)
		}
		ctrl.ResetRates(first.ArrivalRate, first.DecodeRateMax)
		res, err := sim.Run(sim.Config{
			Badge: device.SmartBadge(), Proc: sa1100.Default(),
			Trace: tr, Controller: ctrl, Kind: workload.MP3,
		})
		if err != nil {
			b.Fatal(err)
		}
		frames += res.FramesDecoded
	}
	b.ReportMetric(float64(frames)/b.Elapsed().Seconds(), "frames/s")
}

// BenchmarkMM1 measures the analytic queue math.
func BenchmarkMM1(b *testing.B) {
	var acc float64
	for i := 0; i < b.N; i++ {
		q := queue.MM1{Lambda: float64(i%30 + 1), Mu: 40}
		acc += q.MeanDelay() + q.MeanQueueLength()
	}
	_ = acc
}

// BenchmarkWindowPush measures the detector's sliding-window maintenance.
func BenchmarkWindowPush(b *testing.B) {
	w := stats.NewWindow(100)
	for i := 0; i < b.N; i++ {
		w.Push(float64(i))
	}
}

// BenchmarkTraceGeneration measures workload synthesis for the fleet's three
// traces: the MP3 sequence ACEFBD, the two MPEG clips, and the gapped mixed
// schedule of Table 5.
func BenchmarkTraceGeneration(b *testing.B) {
	mp3, err := workload.MP3Sequence("ACEFBD")
	if err != nil {
		b.Fatal(err)
	}
	mpeg := workload.MPEGClips()
	cases := []struct {
		name string
		gen  func(seed uint64) (*workload.Trace, error)
	}{
		{"mp3", func(seed uint64) (*workload.Trace, error) {
			return workload.Generate(stats.NewRNG(seed), mp3, workload.GenerateOptions{})
		}},
		{"mpeg", func(seed uint64) (*workload.Trace, error) {
			return workload.Generate(stats.NewRNG(seed), mpeg, workload.GenerateOptions{})
		}},
		{"gapped", experiments.Table5Workload},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := c.gen(uint64(i) + 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Parallel-engine benchmarks ---------------------------------------------

// BenchmarkCharacteriseParallel measures the off-line characterisation on a
// multi-ratio grid at 1, 2 and 4 workers. The per-ratio Monte Carlo loops are
// independent (index-derived RNG streams), so on a multi-core host the
// speedup tracks the worker count; on a single-core host every width
// degenerates to the serial cost.
func BenchmarkCharacteriseParallel(b *testing.B) {
	rates, err := changepoint.GeometricRates(10, 60, 6)
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("j=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cfg := changepoint.DefaultConfig(rates)
				cfg.CharacterisationWindows = 1000
				cfg.Seed = uint64(i) + 1
				cfg.Workers = workers
				if _, err := changepoint.Characterise(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkReplicateParallel measures a seed-replicated experiment (the
// Fig. 6 interarrival fit, one full trace generation + fit per replica) at
// 1, 2 and 4 workers. The Metric is identical at every width.
func BenchmarkReplicateParallel(b *testing.B) {
	const replicas = 8
	f := func(seed uint64) (float64, error) {
		r, err := experiments.Fig6(seed)
		if err != nil {
			return 0, err
		}
		return r.MeanAbsError, nil
	}
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("j=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := experiments.ReplicateWorkers(workers, replicas, uint64(i)+1, f); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Threshold-cache and fleet benchmarks -----------------------------------

// benchCacheConfig is the characterisation workload shared by the cold/warm
// cache benchmarks: a 4-point grid at 1000 null windows, heavy enough that
// the cache speedup is unmistakable, light enough for CI.
func benchCacheConfig(b *testing.B) changepoint.Config {
	b.Helper()
	rates, err := changepoint.GeometricRates(10, 60, 4)
	if err != nil {
		b.Fatal(err)
	}
	cfg := changepoint.DefaultConfig(rates)
	cfg.CharacterisationWindows = 1000
	return cfg
}

// BenchmarkCharacteriseCold measures the cache-miss cost: a full Monte Carlo
// characterisation per iteration.
func BenchmarkCharacteriseCold(b *testing.B) {
	cfg := benchCacheConfig(b)
	for i := 0; i < b.N; i++ {
		if _, err := changepoint.Characterise(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCharacteriseWarm measures the cache-hit cost for the same
// configuration: "mem" hits the in-process LRU, "disk" loads and verifies
// the on-disk entry through a fresh Cache each iteration (simulating a new
// process reusing a populated cache directory).
func BenchmarkCharacteriseWarm(b *testing.B) {
	b.Run("mem", benchWarmMem)
	b.Run("disk", benchWarmDisk)
}

func benchWarmMem(b *testing.B) {
	cfg := benchCacheConfig(b)
	c := thrcache.Memory()
	if _, err := c.Characterise(cfg); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Characterise(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func benchWarmDisk(b *testing.B) {
	cfg := benchCacheConfig(b)
	dir := b.TempDir()
	seedCache, err := thrcache.New(dir, 0)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := seedCache.Characterise(cfg); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := thrcache.New(dir, 0)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := c.Characterise(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFleet measures batch-simulation throughput: an 8-badge MP3 batch
// per iteration, reported as simulations per wall second.
func BenchmarkFleet(b *testing.B) {
	runs := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := fleet.Run(fleet.Config{
			Badges:   8,
			Seed:     uint64(i) + 1,
			Apps:     []string{"mp3"},
			Policies: []experiments.PolicyKind{experiments.ExpAvg},
			DPMs:     []string{"none", "renewal"},
		})
		if err != nil {
			b.Fatal(err)
		}
		runs += rep.Agg.Runs
	}
	b.ReportMetric(float64(runs)/b.Elapsed().Seconds(), "runs/s")
}

// BenchmarkSimHotPath measures the simulator event loop alone — trace and
// controller construction are outside the timed region — so the
// energy-accounting rewrite (indexed component accumulators, cached per-mode
// power vectors, O(1) arrival peek) shows up directly in ns/op and allocs/op.
func BenchmarkSimHotPath(b *testing.B) {
	tr := ablationTrace(b, 1)
	first := tr.Changes[0]
	frames := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		ctrl, err := policy.NewController(sa1100.Default(), perfmodel.MP3Curve(), 0.15,
			policy.NewIdeal(first.ArrivalRate), policy.NewIdeal(first.DecodeRateMax), false)
		if err != nil {
			b.Fatal(err)
		}
		ctrl.ResetRates(first.ArrivalRate, first.DecodeRateMax)
		s, err := sim.New(sim.Config{
			Badge: device.SmartBadge(), Proc: sa1100.Default(),
			Trace: tr, Controller: ctrl, Kind: workload.MP3,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		res, err := s.Run()
		if err != nil {
			b.Fatal(err)
		}
		frames += res.FramesDecoded
	}
	b.ReportMetric(float64(frames)/b.Elapsed().Seconds(), "frames/s")
}
