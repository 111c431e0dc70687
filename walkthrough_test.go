//go:build amd64 && !amd64.v3

// These walkthroughs print measured energies and delays, which were
// recorded on amd64 at the default GOAMD64 level. The gc compiler may fuse
// x*y+z into one fused multiply-add on other targets (arm64, ppc64le,
// s390x, and amd64 from GOAMD64=v3 on), which can move a printed digit, so
// the outputs are checked only where the arithmetic matches the recording.

package smartbadge_test

import (
	"fmt"
	"log"

	"smartbadge"
	"smartbadge/internal/device"
	"smartbadge/internal/mdp"
	"smartbadge/internal/perfmodel"
	"smartbadge/internal/policy"
	"smartbadge/internal/sa1100"
	"smartbadge/internal/sim"
	"smartbadge/internal/stats"
	"smartbadge/internal/workload"
)

// Quickstart: generate a short MP3 workload, run it under the paper's
// change-point DVS policy, and print the energy/performance report.
func Example_quickstart() {
	// Two Table 2 clips back to back: the arrival and decode rates change at
	// the clip boundary, which is exactly what the change-point detector has
	// to catch.
	trace, err := smartbadge.MP3Trace(1, "AC")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("workload: %d MP3 frames over %.0f s\n\n", len(trace.Frames), trace.Duration)

	res, err := smartbadge.Run(smartbadge.Options{
		Application: smartbadge.AppMP3,
		Policy:      smartbadge.PolicyChangePoint,
		Trace:       trace,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(smartbadge.FormatResult(res))

	// Compare with running flat out (no DVS).
	max, err := smartbadge.Run(smartbadge.Options{
		Application: smartbadge.AppMP3,
		Policy:      smartbadge.PolicyMax,
		Trace:       trace,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nDVS saves %.1f%% versus maximum performance (%.1f J vs %.1f J)\n",
		(1-res.EnergyJ/max.EnergyJ)*100, res.EnergyJ, max.EnergyJ)
	// Output:
	// workload: 6799 MP3 frames over 230 s
	//
	// energy:            295.5 J (0.295 kJ)
	// simulated time:    230.0 s
	// average power:     1.285 W
	// frames decoded:    6799
	// mean frame delay:  0.065 s (max 0.521 s)
	// mean buffer level: 1.92 frames (peak 20)
	// mean decode clock: 78.6 MHz
	// freq/volt changes: 72
	// sleep transitions: 0
	// time by mode:      decode 131.8s, idle 98.2s, sleep 0.0s, wake 0.0s
	// energy by component:
	//   DRAM              2.3 J
	//   Display          27.6 J
	//   FLASH            10.4 J
	//   SA-1100          23.4 J
	//   SRAM              5.4 J
	//   WLAN RF         226.4 J
	//
	// DVS saves 8.1% versus maximum performance (295.5 J vs 321.4 J)
}

// The Table 3 experiment: a six-clip MP3 sequence decoded under each of the
// four rate policies, printing the energy/delay comparison and the
// per-policy detail that sits behind the paper's table. The paper compares
// exactly these four columns; the change-point policy should sit within a
// few percent of ideal.
func Example_mp3Player() {
	trace, err := smartbadge.MP3Trace(1, "ACEFBD")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("MP3 sequence ACEFBD: %d frames over %.0f s\n\n", len(trace.Frames), trace.Duration)

	fmt.Printf("%-12s %12s %12s %14s %10s\n", "policy", "energy (J)", "delay (s)", "mean clk (MHz)", "switches")
	for _, p := range []smartbadge.Policy{
		smartbadge.PolicyIdeal,
		smartbadge.PolicyChangePoint,
		smartbadge.PolicyExpAvg,
		smartbadge.PolicyMax,
	} {
		res, err := smartbadge.Run(smartbadge.Options{
			Application: smartbadge.AppMP3,
			Policy:      p,
			Trace:       trace,
		})
		if err != nil {
			log.Fatalf("%s: %v", p, err)
		}
		fmt.Printf("%-12s %12.1f %12.3f %14.1f %10d\n",
			p, res.EnergyJ, res.FrameDelay.Mean(), res.FreqTime.Mean(), res.Reconfigurations)
	}
	// Output:
	// MP3 sequence ACEFBD: 16992 frames over 653 s
	//
	// policy         energy (J)    delay (s) mean clk (MHz)   switches
	// ideal               829.9        0.088           69.7          3
	// changepoint         832.6        0.078           73.5        134
	// expavg              840.7        0.117           79.7       1785
	// max                 900.2        0.015          221.2          0
}

// The Table 4 experiment for one MPEG clip: video decoding with large
// frame-to-frame decode-time variance (the I/P/B structure) and
// scene-to-scene rate changes, under the four rate policies.
func Example_mpegPlayer() {
	trace, err := smartbadge.MPEGTrace(1, "football")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("MPEG clip football: %d frames over %.0f s\n", len(trace.Frames), trace.Duration)
	fmt.Printf("scene changes (arrival/decode rate steps): %d\n\n", len(trace.Changes))

	for _, p := range []smartbadge.Policy{
		smartbadge.PolicyIdeal,
		smartbadge.PolicyChangePoint,
		smartbadge.PolicyExpAvg,
		smartbadge.PolicyMax,
	} {
		res, err := smartbadge.Run(smartbadge.Options{
			Application: smartbadge.AppMPEG,
			Policy:      p,
			Trace:       trace,
		})
		if err != nil {
			log.Fatalf("%s: %v", p, err)
		}
		fmt.Printf("--- %s ---\n", p)
		fmt.Printf("energy %.1f J, mean delay %.3f s (target 0.1 s), buffer peak %d frames\n",
			res.EnergyJ, res.FrameDelay.Mean(), res.PeakQueue)
		fmt.Printf("decode clock: mean %.1f MHz (range %.1f-%.1f), %d reconfigurations\n\n",
			res.FreqTime.Mean(), res.FreqTime.Min(), res.FreqTime.Max(), res.Reconfigurations)
	}
	// Output:
	// MPEG clip football: 22070 frames over 875 s
	// scene changes (arrival/decode rate steps): 7
	//
	// --- ideal ---
	// energy 1343.2 J, mean delay 0.115 s (target 0.1 s), buffer peak 32 frames
	// decode clock: mean 173.9 MHz (range 103.2-221.2), 12 reconfigurations
	//
	// --- changepoint ---
	// energy 1337.5 J, mean delay 0.148 s (target 0.1 s), buffer peak 38 frames
	// decode clock: mean 169.3 MHz (range 59.0-221.2), 323 reconfigurations
	//
	// --- expavg ---
	// energy 1347.6 J, mean delay 35.645 s (target 0.1 s), buffer peak 1564 frames
	// decode clock: mean 114.7 MHz (range 59.0-221.2), 3968 reconfigurations
	//
	// --- max ---
	// energy 1396.9 J, mean delay 0.084 s (target 0.1 s), buffer peak 32 frames
	// decode clock: mean 221.2 MHz (range 221.2-221.2), 0 reconfigurations
}

// The Table 5 experiment: a day-in-the-life workload of audio and video
// clips separated by long, heavy-tailed idle periods, run under the four
// power-management configurations the paper compares — nothing, DVS only,
// DPM only, and the combination that yields the paper's headline
// factor-of-three saving — then the DPM policy family (fixed timeout vs.
// renewal-optimal vs. oracle) on the same trace.
func Example_dpmPolicy() {
	trace, err := smartbadge.CombinedTrace(1)
	if err != nil {
		log.Fatal(err)
	}
	idle := 0.0
	for _, g := range trace.IdleGaps {
		idle += g
	}
	fmt.Printf("combined workload: %d frames, %.0f s total, %.0f s of inter-clip idle (%d gaps)\n\n",
		len(trace.Frames), trace.Duration, idle, len(trace.IdleGaps))

	configs := []struct {
		name   string
		policy smartbadge.Policy
		dpm    smartbadge.DPMMode
	}{
		{"None (max clock, always on)", smartbadge.PolicyMax, smartbadge.DPMNone},
		{"DVS only", smartbadge.PolicyChangePoint, smartbadge.DPMNone},
		{"DPM only", smartbadge.PolicyMax, smartbadge.DPMRenewal},
		{"DVS + DPM (the paper's result)", smartbadge.PolicyChangePoint, smartbadge.DPMRenewal},
	}
	baseline := 0.0
	batt := smartbadge.DefaultBattery()
	fmt.Printf("%-32s %12s %8s %8s %12s\n", "configuration", "energy (kJ)", "factor", "sleeps", "battery (h)")
	for _, c := range configs {
		res, err := smartbadge.Run(smartbadge.Options{
			Application: smartbadge.AppMixed,
			Policy:      c.policy,
			DPM:         c.dpm,
			Trace:       trace,
		})
		if err != nil {
			log.Fatalf("%s: %v", c.name, err)
		}
		if baseline == 0 {
			baseline = res.EnergyJ
		}
		life, err := smartbadge.BatteryLifetimeHours(res, batt)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-32s %12.3f %8.2f %8d %12.1f\n",
			c.name, res.EnergyJ/1000, baseline/res.EnergyJ, res.Sleeps, life)
	}

	fmt.Printf("\nDPM policy family on the same trace (with change-point DVS):\n")
	fmt.Printf("%-12s %12s %8s\n", "policy", "energy (kJ)", "sleeps")
	for _, mode := range []smartbadge.DPMMode{
		smartbadge.DPMTimeout, smartbadge.DPMRenewal, smartbadge.DPMTISMDP, smartbadge.DPMOracle,
	} {
		res, err := smartbadge.Run(smartbadge.Options{
			Application: smartbadge.AppMixed,
			Policy:      smartbadge.PolicyChangePoint,
			DPM:         mode,
			Trace:       trace,
		})
		if err != nil {
			log.Fatalf("%s: %v", mode, err)
		}
		fmt.Printf("%-12s %12.3f %8d\n", mode, res.EnergyJ/1000, res.Sleeps)
	}
	// Output:
	// combined workload: 26511 frames, 4316 s total, 3209 s of inter-clip idle (5 gaps)
	//
	// configuration                     energy (kJ)   factor   sleeps  battery (h)
	// None (max clock, always on)             5.769     1.00        0          1.1
	// DVS only                                5.672     1.02        0          1.1
	// DPM only                                1.802     3.20       16          4.0
	// DVS + DPM (the paper's result)          1.706     3.38       10          4.2
	//
	// DPM policy family on the same trace (with change-point DVS):
	// policy        energy (kJ)   sleeps
	// timeout             1.686     1136
	// renewal             1.706       10
	// tismdp              1.706        8
	// oracle              1.558     1136
}

// The "full optimization model" the paper alludes to: instead of picking
// one frequency per (arrival rate, decode rate) pair via the M/M/1
// constant-delay inversion, solve the average-cost Markov decision process
// over the buffer occupancy and run slower when the buffer is nearly empty,
// faster as it fills. This prints the optimal switching curve and compares
// the resulting energy/delay against the paper's rate-based policy and
// against fixed frequencies.
func Example_queueAware() {
	const (
		lambda = 25.0  // frame arrival rate (fr/s)
		decode = 110.0 // decode rate at maximum frequency (fr/s)
		beta   = 0.5   // delay price (watts per buffered frame)
	)
	proc := sa1100.Default()
	curve := perfmodel.MP3Curve()
	fMax := proc.Max().FrequencyMHz
	mu := make([]float64, proc.NumPoints())
	pw := make([]float64, proc.NumPoints())
	for i, p := range proc.Points() {
		mu[i] = decode * curve.PerfRatio(p.FrequencyMHz/fMax)
		pw[i] = p.ActivePowerW
	}
	cfg := mdp.Config{
		Lambda: lambda, Mu: mu, PowerW: pw,
		IdlePowerW: proc.IdlePowerW(), DelayWeightW: beta, QueueCap: 40,
	}
	pol, err := mdp.Solve(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("optimal switching curve (λ=%.0f fr/s, µmax=%.0f fr/s, β=%.2g W/frame):\n",
		lambda, decode, beta)
	prev := -1
	for n := 1; n <= cfg.QueueCap; n++ {
		if pol.Action[n] != prev {
			op := proc.Point(pol.Action[n])
			fmt.Printf("  buffer >= %2d frames -> %6.1f MHz @ %.2f V\n", n, op.FrequencyMHz, op.VoltageV)
			prev = pol.Action[n]
		}
	}
	fmt.Printf("optimal average cost: %.4f W (energy + delay price)\n\n", pol.AvgCostW)

	// Simulate against the rate-based M/M/1 policy and fixed frequencies.
	clip := workload.Clip{
		Label: "bench", Kind: workload.MP3,
		Segments: []workload.Segment{{Duration: 1200, ArrivalRate: lambda, DecodeRateMax: decode}},
	}
	tr, err := workload.Generate(stats.NewRNG(1), []workload.Clip{clip}, workload.GenerateOptions{})
	if err != nil {
		log.Fatal(err)
	}
	ladder, err := pol.Ladder(proc)
	if err != nil {
		log.Fatal(err)
	}
	run := func(qp sim.QueuePolicy) *sim.Result {
		ctrl, err := policy.NewController(proc, curve, 0.15,
			policy.NewIdeal(lambda), policy.NewIdeal(decode), false)
		if err != nil {
			log.Fatal(err)
		}
		ctrl.ResetRates(lambda, decode)
		res, err := sim.Run(sim.Config{
			Badge: device.SmartBadge(), Proc: proc, Trace: tr,
			Controller: ctrl, Kind: workload.MP3, QueuePolicy: qp,
		})
		if err != nil {
			log.Fatal(err)
		}
		return res
	}
	fmt.Printf("%-22s %12s %12s %10s\n", "policy", "CPU power(W)", "delay (ms)", "switches")
	report := func(name string, r *sim.Result) {
		fmt.Printf("%-22s %12.4f %12.1f %10d\n", name,
			r.EnergyByComponent[device.NameCPU]/r.SimTime,
			r.FrameDelay.Mean()*1000, r.Reconfigurations)
	}
	report("queue-aware MDP", run(ladder))
	report("M/M/1 rate policy", run(nil))
	report("fixed 103.2 MHz", run(fixedQP{proc.Point(3)}))
	report("fixed 221.2 MHz", run(fixedQP{proc.Point(proc.NumPoints() - 1)}))
	// Output:
	// optimal switching curve (λ=25 fr/s, µmax=110 fr/s, β=0.5 W/frame):
	//   buffer >=  1 frames ->  162.2 MHz @ 1.22 V
	//   buffer >=  2 frames ->  206.4 MHz @ 1.43 V
	//   buffer >=  3 frames ->  221.2 MHz @ 1.50 V
	// optimal average cost: 0.3572 W (energy + delay price)
	//
	// policy                 CPU power(W)   delay (ms)   switches
	// queue-aware MDP              0.1792         14.4       2915
	// M/M/1 rate policy            0.0914         52.3          0
	// fixed 103.2 MHz              0.1364         23.2          1
	// fixed 221.2 MHz              0.2216         11.6          1
}

type fixedQP struct{ op sa1100.OperatingPoint }

func (f fixedQP) OperatingPointFor(int) sa1100.OperatingPoint { return f.op }
