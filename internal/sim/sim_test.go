package sim

import (
	"math"
	"testing"

	"smartbadge/internal/changepoint"
	"smartbadge/internal/device"
	"smartbadge/internal/dpm"
	"smartbadge/internal/markov"
	"smartbadge/internal/mdp"
	"smartbadge/internal/perfmodel"
	"smartbadge/internal/policy"
	"smartbadge/internal/sa1100"
	"smartbadge/internal/stats"
	"smartbadge/internal/workload"
)

// mp3Trace generates a deterministic Table 3-style trace.
func mp3Trace(t *testing.T, seed uint64, labels string) *workload.Trace {
	t.Helper()
	clips, err := workload.MP3Sequence(labels)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := workload.Generate(stats.NewRNG(seed), clips, workload.GenerateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// idealController builds a DVS controller with oracle estimators.
func idealController(t *testing.T, curve perfmodel.Curve, target float64, alwaysMax bool) *policy.Controller {
	t.Helper()
	c, err := policy.NewController(sa1100.Default(), curve, target,
		policy.NewIdeal(0), policy.NewIdeal(0), alwaysMax)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func runMP3(t *testing.T, seed uint64, alwaysMax bool, pol dpm.Policy) *Result {
	t.Helper()
	tr := mp3Trace(t, seed, "ACEFBD")
	cfg := Config{
		Badge:      device.SmartBadge(),
		Proc:       sa1100.Default(),
		Trace:      tr,
		Controller: idealController(t, perfmodel.MP3Curve(), 0.15, alwaysMax),
		DPM:        pol,
		Kind:       workload.MP3,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestRunDecodesAllFrames(t *testing.T) {
	tr := mp3Trace(t, 1, "ACEFBD")
	res := runMP3(t, 1, false, nil)
	if res.FramesDecoded != len(tr.Frames) {
		t.Errorf("decoded %d of %d", res.FramesDecoded, len(tr.Frames))
	}
	if res.FrameDelay.Count() != int64(len(tr.Frames)) {
		t.Error("delay count mismatch")
	}
	if res.FrameDelay.Mean() <= 0 {
		t.Error("non-positive mean delay")
	}
	if res.SimTime < tr.Duration {
		t.Errorf("sim time %v shorter than trace duration %v", res.SimTime, tr.Duration)
	}
}

func TestEnergyConservation(t *testing.T) {
	res := runMP3(t, 2, false, nil)
	sumC := 0.0
	for _, e := range res.EnergyByComponent {
		if e < 0 {
			t.Error("negative component energy")
		}
		sumC += e
	}
	if math.Abs(sumC-res.EnergyJ) > 1e-6*res.EnergyJ {
		t.Errorf("component sum %v != total %v", sumC, res.EnergyJ)
	}
	sumM := 0.0
	for _, e := range res.EnergyByMode {
		sumM += e
	}
	if math.Abs(sumM-res.EnergyJ) > 1e-6*res.EnergyJ {
		t.Errorf("mode sum %v != total %v", sumM, res.EnergyJ)
	}
	sumT := 0.0
	for _, d := range res.TimeInMode {
		sumT += d
	}
	if math.Abs(sumT-res.SimTime) > 1e-6*res.SimTime {
		t.Errorf("mode time sum %v != sim time %v", sumT, res.SimTime)
	}
	if res.AvgPowerW <= 0 {
		t.Error("non-positive average power")
	}
}

func TestDeterminism(t *testing.T) {
	a := runMP3(t, 3, false, nil)
	b := runMP3(t, 3, false, nil)
	if a.EnergyJ != b.EnergyJ || a.FramesDecoded != b.FramesDecoded ||
		a.FrameDelay.Mean() != b.FrameDelay.Mean() || a.Sleeps != b.Sleeps {
		t.Error("identical runs diverged")
	}
}

func TestIdealDVSMeetsDelayTarget(t *testing.T) {
	res := runMP3(t, 4, false, nil)
	// The M/M/1 policy keeps the mean total frame delay at ~0.15 s; ladder
	// quantisation can only push it BELOW the target (extra service rate).
	if res.FrameDelay.Mean() > 0.15*1.25 {
		t.Errorf("mean frame delay %v, want <= %v", res.FrameDelay.Mean(), 0.15*1.25)
	}
	if res.FrameDelay.Mean() < 0.01 {
		t.Errorf("mean frame delay %v suspiciously low for a delay-targeting policy", res.FrameDelay.Mean())
	}
}

func TestDVSSavesEnergyVersusMax(t *testing.T) {
	dvs := runMP3(t, 5, false, nil)
	maxp := runMP3(t, 5, true, nil)
	if dvs.EnergyJ >= maxp.EnergyJ {
		t.Errorf("DVS energy %v not below max-performance %v", dvs.EnergyJ, maxp.EnergyJ)
	}
	// Max-performance runs flat out, so its frame delay is the smallest.
	if dvs.FrameDelay.Mean() < maxp.FrameDelay.Mean() {
		t.Error("DVS delay below max-performance delay is impossible")
	}
	// DVS must actually have used lower frequencies.
	if dvs.FreqTime.Mean() >= maxp.FreqTime.Mean() {
		t.Errorf("DVS mean frequency %v not below max %v", dvs.FreqTime.Mean(), maxp.FreqTime.Mean())
	}
}

func TestMaxPerfPinsTopFrequency(t *testing.T) {
	res := runMP3(t, 6, true, nil)
	top := sa1100.Default().Max().FrequencyMHz
	if res.FreqTime.Min() != top || res.FreqTime.Max() != top {
		t.Errorf("max-performance frequency range [%v, %v], want pinned at %v",
			res.FreqTime.Min(), res.FreqTime.Max(), top)
	}
	if res.Reconfigurations != 0 {
		t.Errorf("max-performance reconfigured %d times", res.Reconfigurations)
	}
}

func TestDelayViolationCounters(t *testing.T) {
	// Max performance keeps delays tiny: essentially no violations.
	maxp := runMP3(t, 41, true, nil)
	if frac := float64(maxp.DelayOver2xTarget) / float64(maxp.FramesDecoded); frac > 0.01 {
		t.Errorf("max-performance 2x-target violations = %v%%, want ~0", frac*100)
	}
	// The delay-targeting policy violates 1x occasionally (the M/M/1 mean is
	// the target, so a substantial fraction exceeds it), but the counters
	// must be consistent.
	dvs := runMP3(t, 41, false, nil)
	if dvs.DelayOver2xTarget > dvs.DelayOverTarget {
		t.Error("2x violations exceed 1x violations")
	}
	if dvs.DelayOverTarget > dvs.FramesDecoded {
		t.Error("violations exceed decoded frames")
	}
	if dvs.DelayOverTarget <= maxp.DelayOverTarget {
		t.Error("DVS should violate the target more often than flat-out")
	}
}

func TestLittlesLawHoldsApproximately(t *testing.T) {
	tr := mp3Trace(t, 7, "ACEFBD")
	res := runMP3(t, 7, false, nil)
	lambda := float64(len(tr.Frames)) / res.SimTime
	want := lambda * res.FrameDelay.Mean()
	got := res.QueueLen.Mean()
	if math.Abs(got-want)/want > 0.15 {
		t.Errorf("L = %v, λW = %v: Little's law violated beyond tolerance", got, want)
	}
}

func gapTrace(t *testing.T, seed uint64) *workload.Trace {
	t.Helper()
	clips, err := workload.MP3Sequence("ABCDEF")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := workload.Generate(stats.NewRNG(seed), clips, workload.GenerateOptions{
		Gap: stats.Shifted{Offset: 10, Base: stats.NewPareto(10, 1.8)},
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func runGapTrace(t *testing.T, seed uint64, pol dpm.Policy) *Result {
	t.Helper()
	cfg := Config{
		Badge:      device.SmartBadge(),
		Proc:       sa1100.Default(),
		Trace:      gapTrace(t, seed),
		Controller: idealController(t, perfmodel.MP3Curve(), 0.15, false),
		DPM:        pol,
		Kind:       workload.MP3,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestDPMSleepsDuringGaps(t *testing.T) {
	badge := device.SmartBadge()
	costs := dpm.CostsForBadge(badge, device.Standby)
	pol, err := dpm.NewRenewalTimeout(
		stats.Shifted{Offset: 10, Base: stats.NewPareto(10, 1.8)}, costs, device.Standby, 0)
	if err != nil {
		t.Fatal(err)
	}
	withDPM := runGapTrace(t, 11, pol)
	without := runGapTrace(t, 11, dpm.AlwaysOn{})
	if withDPM.Sleeps == 0 {
		t.Fatal("DPM never slept despite 10s+ gaps")
	}
	if without.Sleeps != 0 {
		t.Fatal("always-on slept")
	}
	if withDPM.EnergyJ >= without.EnergyJ {
		t.Errorf("DPM energy %v not below always-on %v", withDPM.EnergyJ, without.EnergyJ)
	}
	if withDPM.TimeInMode[ModeSleep] <= 0 {
		t.Error("no sleep time recorded")
	}
	// Sleeping delays the frames that arrive during wake-up, so the mean
	// delay may rise slightly, but the system must still drain everything.
	if withDPM.FramesDecoded != without.FramesDecoded {
		t.Error("frame counts differ")
	}
}

func TestFixedTimeoutNeverFiresWhenLongerThanGaps(t *testing.T) {
	pol, err := dpm.NewFixedTimeout(1e6, device.Standby)
	if err != nil {
		t.Fatal(err)
	}
	res := runGapTrace(t, 12, pol)
	if res.Sleeps != 0 {
		t.Errorf("slept %d times with a timeout beyond every gap", res.Sleeps)
	}
}

func TestOracleDPMBeatsFixedTimeouts(t *testing.T) {
	badge := device.SmartBadge()
	costs := dpm.CostsForBadge(badge, device.Standby)
	oracle, err := dpm.NewOracle(costs, device.Standby)
	if err != nil {
		t.Fatal(err)
	}
	resOracle := runGapTrace(t, 13, oracle)
	for _, timeout := range []float64{0.5, 5, 50} {
		ft, err := dpm.NewFixedTimeout(timeout, device.Standby)
		if err != nil {
			t.Fatal(err)
		}
		resFT := runGapTrace(t, 13, ft)
		if resOracle.EnergyJ > resFT.EnergyJ*1.001 {
			t.Errorf("oracle energy %v worse than timeout %vs (%v)", resOracle.EnergyJ, timeout, resFT.EnergyJ)
		}
	}
}

func TestTwoLevelPolicyDeepens(t *testing.T) {
	// Standby after 1 s, deepen to off after 10 more seconds asleep: the
	// 10 s+ inter-clip gaps must trigger both transitions.
	pol, err := dpm.NewTwoLevelTimeout(1, 10)
	if err != nil {
		t.Fatal(err)
	}
	res := runGapTrace(t, 31, pol)
	if res.Sleeps == 0 {
		t.Fatal("two-level policy never slept")
	}
	if res.Deepens == 0 {
		t.Fatal("two-level policy never deepened to off")
	}
	if res.Deepens > res.Sleeps {
		t.Errorf("deepens %d > sleeps %d", res.Deepens, res.Sleeps)
	}
	// Deepening to off must save energy versus parking in standby forever.
	sbyOnly, err := dpm.NewFixedTimeout(1, device.Standby)
	if err != nil {
		t.Fatal(err)
	}
	resSby := runGapTrace(t, 31, sbyOnly)
	if res.EnergyJ >= resSby.EnergyJ {
		t.Errorf("off-deepening energy %v not below standby-only %v", res.EnergyJ, resSby.EnergyJ)
	}
	// A deepen timer longer than every gap must never fire.
	noDeep, err := dpm.NewTwoLevelTimeout(1, 1e8)
	if err != nil {
		t.Fatal(err)
	}
	resNo := runGapTrace(t, 31, noDeep)
	if resNo.Deepens != 0 {
		t.Errorf("deepened %d times with an unreachable deepen timeout", resNo.Deepens)
	}
}

func TestDualOracleUsesOffOnLongGaps(t *testing.T) {
	badge := device.SmartBadge()
	pol, err := dpm.NewDualOracle(
		dpm.CostsForBadge(badge, device.Standby),
		dpm.CostsForBadge(badge, device.Off),
	)
	if err != nil {
		t.Fatal(err)
	}
	res := runGapTrace(t, 32, pol)
	if res.Sleeps == 0 {
		t.Fatal("dual oracle never slept")
	}
	single, err := dpm.NewOracle(dpm.CostsForBadge(badge, device.Standby), device.Standby)
	if err != nil {
		t.Fatal(err)
	}
	resSingle := runGapTrace(t, 32, single)
	if res.EnergyJ > resSingle.EnergyJ*1.001 {
		t.Errorf("dual oracle %v worse than standby-only oracle %v", res.EnergyJ, resSingle.EnergyJ)
	}
}

func TestWakeLatencyDelaysFrames(t *testing.T) {
	// Sleeping immediately (timeout 0) forces a wake penalty on the first
	// frame of every burst.
	pol, err := dpm.NewFixedTimeout(0, device.Standby)
	if err != nil {
		t.Fatal(err)
	}
	slept := runGapTrace(t, 14, pol)
	awake := runGapTrace(t, 14, dpm.AlwaysOn{})
	if slept.FrameDelay.Max() < awake.FrameDelay.Max() {
		t.Error("wake latency should increase the worst-case frame delay")
	}
}

func TestConfigValidation(t *testing.T) {
	tr := mp3Trace(t, 15, "A")
	ctrl := idealController(t, perfmodel.MP3Curve(), 0.15, false)
	badge := device.SmartBadge()
	proc := sa1100.Default()
	cases := []Config{
		{Proc: proc, Trace: tr, Controller: ctrl},
		{Badge: badge, Trace: tr, Controller: ctrl},
		{Badge: badge, Proc: proc, Controller: ctrl},
		{Badge: badge, Proc: proc, Trace: tr},
		{Badge: badge, Proc: proc, Trace: &workload.Trace{}, Controller: ctrl},
	}
	for i, cfg := range cases {
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestRunOnlyOnce(t *testing.T) {
	tr := mp3Trace(t, 16, "A")
	s, err := New(Config{
		Badge:      device.SmartBadge(),
		Proc:       sa1100.Default(),
		Trace:      tr,
		Controller: idealController(t, perfmodel.MP3Curve(), 0.15, false),
		Kind:       workload.MP3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err == nil {
		t.Error("second Run should fail")
	}
}

func TestModeString(t *testing.T) {
	for m, want := range map[Mode]string{
		ModeDecode: "decode", ModeAwakeIdle: "idle", ModeSleep: "sleep", ModeWake: "wake",
	} {
		if m.String() != want {
			t.Errorf("%d.String() = %q", m, m.String())
		}
	}
	if Mode(9).String() != "Mode(9)" {
		t.Error("unknown mode string")
	}
}

// MPEG run: the video memory (DRAM) and display must be the active ones.
func TestMPEGComponentActivity(t *testing.T) {
	tr, err := workload.Generate(stats.NewRNG(21), []workload.Clip{workload.Football()}, workload.GenerateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Badge:      device.SmartBadge(),
		Proc:       sa1100.Default(),
		Trace:      tr,
		Controller: idealController(t, perfmodel.MPEGCurve(), 0.1, false),
		Kind:       workload.MPEG,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// DRAM must consume clearly more than SRAM on a video run (active vs
	// idle for the same decode time).
	if res.EnergyByComponent[device.NameDRAM] <= res.EnergyByComponent[device.NameSRAM] {
		t.Errorf("DRAM %v <= SRAM %v on a video run",
			res.EnergyByComponent[device.NameDRAM], res.EnergyByComponent[device.NameSRAM])
	}
}

func TestMP3ComponentActivity(t *testing.T) {
	res := runMP3(t, 22, false, nil)
	// On an audio run DRAM idles; SRAM decodes. SRAM active power (115 mW)
	// vs DRAM idle (10 mW): SRAM energy while decoding must exceed DRAM's.
	if res.EnergyByComponent[device.NameSRAM] <= res.EnergyByComponent[device.NameDRAM] {
		t.Errorf("SRAM %v <= DRAM %v on an audio run",
			res.EnergyByComponent[device.NameSRAM], res.EnergyByComponent[device.NameDRAM])
	}
}

func TestFiniteBufferDropsUnderBacklog(t *testing.T) {
	// A deliberately under-provisioned controller (tiny decode-rate belief,
	// fixed) backs the queue up; a finite buffer must shed frames.
	tr := mp3Trace(t, 51, "A")
	mk := func(cap int) *Result {
		ctrl, err := policy.NewController(sa1100.Default(), perfmodel.MP3Curve(), 0.15,
			policy.NewFixed(38.3), policy.NewFixed(45), false) // barely above arrival rate
		if err != nil {
			t.Fatal(err)
		}
		ctrl.ResetRates(38.3, 45)
		res, err := Run(Config{
			Badge: device.SmartBadge(), Proc: sa1100.Default(),
			Trace: tr, Controller: ctrl, Kind: workload.MP3, BufferCap: cap,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	bounded := mk(5)
	unbounded := mk(0)
	if unbounded.FramesDropped != 0 {
		t.Error("unbounded buffer dropped frames")
	}
	if bounded.FramesDropped == 0 {
		t.Error("5-frame buffer never dropped under backlog")
	}
	if bounded.FramesDecoded+bounded.FramesDropped != len(tr.Frames) {
		t.Error("decoded + dropped != total")
	}
	if bounded.PeakQueue > 5 {
		t.Errorf("peak queue %d exceeds capacity 5", bounded.PeakQueue)
	}
	// Shedding load keeps the survivors' delay bounded.
	if bounded.FrameDelay.Max() > unbounded.FrameDelay.Max() {
		t.Error("bounded buffer should cap worst-case delay")
	}
}

// Cross-validation against the analytic M/M/1/K chain: with exponential
// arrivals and service at a fixed frequency, the simulator's drop fraction
// and accepted-frame delay must match the birth-death steady state.
func TestFiniteBufferMatchesMM1K(t *testing.T) {
	const lambda, mu = 30.0, 40.0
	const capK = 5
	clip := workload.Clip{
		Label: "mm1k",
		Kind:  workload.MP3,
		Segments: []workload.Segment{{
			Duration: 600, ArrivalRate: lambda, DecodeRateMax: mu,
		}},
	}
	tr, err := workload.Generate(stats.NewRNG(61), []workload.Clip{clip}, workload.GenerateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Max policy pins the top frequency, so service times are the raw
	// exponential works — exactly the analytic model's assumptions.
	ctrl, err := policy.NewController(sa1100.Default(), perfmodel.MP3Curve(), 0.15,
		policy.NewFixed(lambda), policy.NewFixed(mu), true)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{
		Badge: device.SmartBadge(), Proc: sa1100.Default(),
		Trace: tr, Controller: ctrl, Kind: workload.MP3, BufferCap: capK,
	})
	if err != nil {
		t.Fatal(err)
	}
	want, err := markov.AnalyzeMM1K(lambda, mu, capK)
	if err != nil {
		t.Fatal(err)
	}
	dropFrac := float64(res.FramesDropped) / float64(len(tr.Frames))
	if math.Abs(dropFrac-want.Blocking) > 0.012 {
		t.Errorf("drop fraction = %v, analytic blocking = %v", dropFrac, want.Blocking)
	}
	if rel := math.Abs(res.FrameDelay.Mean()-want.MeanDelay) / want.MeanDelay; rel > 0.08 {
		t.Errorf("mean delay = %v, analytic = %v (rel %v)", res.FrameDelay.Mean(), want.MeanDelay, rel)
	}
	if rel := math.Abs(res.QueueLen.Mean()-want.MeanLength) / want.MeanLength; rel > 0.08 {
		t.Errorf("mean queue = %v, analytic = %v (rel %v)", res.QueueLen.Mean(), want.MeanLength, rel)
	}
}

func TestNegativeBufferCapRejected(t *testing.T) {
	tr := mp3Trace(t, 52, "A")
	_, err := New(Config{
		Badge: device.SmartBadge(), Proc: sa1100.Default(),
		Trace: tr, Controller: idealController(t, perfmodel.MP3Curve(), 0.15, false),
		BufferCap: -1,
	})
	if err == nil {
		t.Error("negative buffer capacity accepted")
	}
}

// Stress: near-saturation load (arrivals at 90% of the full-speed decode
// rate) must stay stable under the delay-targeting policy — the controller
// detects the unachievable target and runs flat out.
func TestNearSaturationStress(t *testing.T) {
	clip := workload.Clip{
		Label: "hot",
		Kind:  workload.MP3,
		Segments: []workload.Segment{{
			Duration: 400, ArrivalRate: 99, DecodeRateMax: 110,
		}},
	}
	tr, err := workload.Generate(stats.NewRNG(91), []workload.Clip{clip}, workload.GenerateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ctrl := idealController(t, perfmodel.MP3Curve(), 0.15, false)
	ctrl.ResetRates(99, 110)
	res, err := Run(Config{
		Badge: device.SmartBadge(), Proc: sa1100.Default(),
		Trace: tr, Controller: ctrl, Kind: workload.MP3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.FramesDecoded != len(tr.Frames) {
		t.Fatal("frames lost")
	}
	// Required µ = 99 + 6.67 = 105.7 fr/s; the slowest sufficient rung is
	// 206.4 MHz (sustaining 106.4 fr/s) — the controller must never run
	// below it.
	if res.FreqTime.Min() < 206.4 {
		t.Errorf("near-saturation run dropped below the sufficient rung (min %v MHz)", res.FreqTime.Min())
	}
	// ρ = 0.9: analytic M/M/1 delay = 1/(110-99) ≈ 91 ms. A finite run at
	// this utilisation has very high variance (one excursion dominates), so
	// only a stability band is asserted — the queue must not diverge.
	want := 1.0 / 11
	if res.FrameDelay.Mean() > 4*want || res.FrameDelay.Mean() < want/4 {
		t.Errorf("mean delay %v outside the stability band around analytic %v", res.FrameDelay.Mean(), want)
	}
}

// The queue-aware MDP policy drives the simulator through the QueuePolicy
// hook; with a single-segment exponential workload the simulated mean queue
// must match the policy's exact birth-death steady state, and the simulated
// energy+delay objective must beat a fixed-frequency policy's.
func TestMDPQueuePolicyEndToEnd(t *testing.T) {
	const lambda, decodeMax = 25.0, 110.0
	proc := sa1100.Default()
	curve := perfmodel.MP3Curve()
	fMax := proc.Max().FrequencyMHz
	mu := make([]float64, proc.NumPoints())
	pw := make([]float64, proc.NumPoints())
	for i, p := range proc.Points() {
		mu[i] = decodeMax * curve.PerfRatio(p.FrequencyMHz/fMax)
		pw[i] = p.ActivePowerW
	}
	cfg := mdp.Config{
		Lambda: lambda, Mu: mu, PowerW: pw,
		IdlePowerW: proc.IdlePowerW(), DelayWeightW: 0.5, QueueCap: 40,
	}
	pol, err := mdp.Solve(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ladder, err := pol.Ladder(proc)
	if err != nil {
		t.Fatal(err)
	}

	clip := workload.Clip{
		Label: "mdp",
		Kind:  workload.MP3,
		Segments: []workload.Segment{{
			Duration: 1200, ArrivalRate: lambda, DecodeRateMax: decodeMax,
		}},
	}
	tr, err := workload.Generate(stats.NewRNG(81), []workload.Clip{clip}, workload.GenerateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	run := func(qp QueuePolicy) *Result {
		ctrl := idealController(t, curve, 0.15, false)
		ctrl.ResetRates(lambda, decodeMax)
		res, err := Run(Config{
			Badge: device.SmartBadge(), Proc: proc,
			Trace: tr, Controller: ctrl, Kind: workload.MP3,
			QueuePolicy: qp,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	res := run(ladder)
	if res.FramesDecoded != len(tr.Frames) {
		t.Fatal("frames lost")
	}
	if res.Reconfigurations == 0 {
		t.Error("queue-aware policy never switched frequency")
	}
	// Simulated mean queue vs the exact birth-death steady state.
	wantL, err := mdp.MeanQueueLength(cfg, pol.Action)
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(res.QueueLen.Mean()-wantL) / wantL; rel > 0.10 {
		t.Errorf("mean queue = %v, birth-death = %v (rel %v)", res.QueueLen.Mean(), wantL, rel)
	}
	// Simulated objective (CPU power while busy + idle power + β·L) must
	// beat a mid-ladder fixed frequency's simulated objective.
	objective := func(r *Result) float64 {
		cpuPower := r.EnergyByComponent[device.NameCPU] / r.SimTime
		return cpuPower + cfg.DelayWeightW*r.QueueLen.Mean()
	}
	fixedIdx := 6
	fixedRes := run(fixedQP{proc.Point(fixedIdx)})
	if objective(res) > objective(fixedRes)*1.02 {
		t.Errorf("MDP objective %v clearly worse than fixed[%d] %v",
			objective(res), fixedIdx, objective(fixedRes))
	}
}

type fixedQP struct{ op sa1100.OperatingPoint }

func (f fixedQP) OperatingPointFor(int) sa1100.OperatingPoint { return f.op }

// Robustness: random clip parameters within the validity envelope never
// break the simulator's invariants.
func TestRandomWorkloadInvariantsProperty(t *testing.T) {
	for seed := uint64(0); seed < 25; seed++ {
		rng := stats.NewRNG(9000 + seed)
		nClips := 1 + rng.Intn(4)
		clips := make([]workload.Clip, nClips)
		for i := range clips {
			arr := rng.Uniform(5, 40)
			dec := rng.Uniform(arr*1.4, arr*5) // always sustainable at fmax
			clips[i] = workload.Clip{
				Label: string(rune('a' + i)),
				Kind:  workload.Kind(rng.Intn(2)),
				Segments: []workload.Segment{{
					Duration:      rng.Uniform(5, 40),
					ArrivalRate:   arr,
					DecodeRateMax: dec,
				}},
			}
			if clips[i].Kind == workload.MPEG {
				clips[i].GOP = workload.DefaultGOP()
			}
		}
		var gap stats.Distribution
		if rng.Intn(2) == 0 {
			gap = stats.Shifted{Offset: 1, Base: stats.NewPareto(2, 1.5)}
		}
		tr, err := workload.Generate(rng.Split(), clips, workload.GenerateOptions{Gap: gap})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		target := rng.Uniform(0.05, 0.5)
		first := tr.Changes[0]
		ctrl, err := policy.NewController(sa1100.Default(), perfmodel.MPEGCurve(), target,
			policy.NewIdeal(first.ArrivalRate), policy.NewIdeal(first.DecodeRateMax), false)
		if err != nil {
			t.Fatal(err)
		}
		ctrl.ResetRates(first.ArrivalRate, first.DecodeRateMax)
		var pol dpm.Policy
		if rng.Intn(2) == 0 {
			pol, err = dpm.NewFixedTimeout(rng.Uniform(0, 2), device.Standby)
			if err != nil {
				t.Fatal(err)
			}
		}
		res, err := Run(Config{
			Badge: device.SmartBadge(), Proc: sa1100.Default(),
			Trace: tr, Controller: ctrl, DPM: pol, Kind: clips[0].Kind,
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		// Invariants.
		if res.FramesDecoded != len(tr.Frames) {
			t.Fatalf("seed %d: decoded %d of %d", seed, res.FramesDecoded, len(tr.Frames))
		}
		if res.EnergyJ <= 0 || res.SimTime <= 0 {
			t.Fatalf("seed %d: non-positive energy or time", seed)
		}
		sum := 0.0
		for _, e := range res.EnergyByComponent {
			sum += e
		}
		if math.Abs(sum-res.EnergyJ) > 1e-6*res.EnergyJ {
			t.Fatalf("seed %d: component energies do not sum to total", seed)
		}
		if res.FrameDelay.Min() < 0 {
			t.Fatalf("seed %d: negative frame delay", seed)
		}
		if res.Deepens > res.Sleeps {
			t.Fatalf("seed %d: deepens > sleeps", seed)
		}
	}
}

func TestChangePointPolicyEndToEnd(t *testing.T) {
	// Full pipeline: change-point estimators driving the controller.
	mkEst := func(rates []float64, initial float64) *policy.ChangePoint {
		t.Helper()
		cpCfg := changepoint.DefaultConfig(rates)
		cpCfg.CharacterisationWindows = 600
		ths, err := changepoint.Characterise(cpCfg)
		if err != nil {
			t.Fatal(err)
		}
		det, err := changepoint.NewDetector(cpCfg, ths[0], initial)
		if err != nil {
			t.Fatal(err)
		}
		return policy.NewChangePoint(det)
	}
	ctrl, err := policy.NewController(sa1100.Default(), perfmodel.MP3Curve(), 0.15,
		mkEst([]float64{9, 14, 19, 21, 28, 38}, 20),
		mkEst([]float64{60, 85, 95, 110, 125, 140}, 95), false)
	if err != nil {
		t.Fatal(err)
	}
	tr := mp3Trace(t, 23, "ACEFBD")
	res, err := Run(Config{
		Badge:      device.SmartBadge(),
		Proc:       sa1100.Default(),
		Trace:      tr,
		Controller: ctrl,
		Kind:       workload.MP3,
	})
	if err != nil {
		t.Fatal(err)
	}
	maxRes := runMP3(t, 23, true, nil)
	if res.EnergyJ >= maxRes.EnergyJ {
		t.Errorf("change-point DVS energy %v not below max %v", res.EnergyJ, maxRes.EnergyJ)
	}
	// Delay must stay within a small multiple of the target.
	if res.FrameDelay.Mean() > 0.5 {
		t.Errorf("change-point mean delay %v too high", res.FrameDelay.Mean())
	}
}

// recordingDPM wraps a policy, recording the oracle idle length of every
// Decide call and cross-checking the simulator's arrival-slot peek against
// the trace at each idle entry: the buffer is empty there, so every frame
// that arrived was decoded or dropped, and the next arrival is the frame
// after them.
type recordingDPM struct {
	inner   dpm.Policy
	sim     *Simulator
	t       *testing.T
	oracles []float64
}

func (r *recordingDPM) Decide(oracleIdle float64) dpm.Decision {
	r.oracles = append(r.oracles, oracleIdle)
	if s := r.sim; s != nil {
		want := -1.0
		if n := s.res.FramesDecoded + s.res.FramesDropped; n < len(s.cfg.Trace.Frames) {
			want = s.cfg.Trace.Frames[n].Arrival
		}
		if got := s.peekNextArrivalTime(); got != want {
			r.t.Errorf("peekNextArrivalTime = %v, the trace says %v", got, want)
		}
	}
	return r.inner.Decide(oracleIdle)
}
func (r *recordingDPM) ObserveIdle(d float64) { r.inner.ObserveIdle(d) }
func (r *recordingDPM) Name() string          { return r.inner.Name() }

// TestIdleDrainsWithoutArrivals is the regression test for the arrival-slot
// peek: every idle entry while frames remain must consult the DPM policy with
// the true (positive) gap to the next arrival, and the final idle entry after
// the trace is exhausted must drain the run without asking the policy to
// sleep — otherwise an eager timeout policy would park the badge in standby
// forever (or charge phantom sleep energy past trace end).
func TestIdleDrainsWithoutArrivals(t *testing.T) {
	const tau = 0.05
	pol, err := dpm.NewFixedTimeout(tau, device.Standby)
	if err != nil {
		t.Fatal(err)
	}
	rec := &recordingDPM{inner: pol, t: t}
	cfg := Config{
		Badge:      device.SmartBadge(),
		Proc:       sa1100.Default(),
		Trace:      gapTrace(t, 11),
		Controller: idealController(t, perfmodel.MP3Curve(), 0.15, false),
		DPM:        rec,
		Kind:       workload.MP3,
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec.sim = s
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.FramesDecoded != len(cfg.Trace.Frames) {
		t.Fatalf("decoded %d of %d frames", res.FramesDecoded, len(cfg.Trace.Frames))
	}
	// Drained: the peek reports trace exhaustion and every slot is empty.
	if got := s.peekNextArrivalTime(); got != -1 {
		t.Errorf("after drain peekNextArrivalTime = %v, want -1", got)
	}
	for k, e := range s.pending {
		if e.seq != 0 {
			t.Errorf("after drain event kind %d still pending at t=%v", k, e.time)
		}
	}
	if s.mode != ModeAwakeIdle {
		t.Errorf("after drain mode = %v, want %v (never sleep once arrivals end)", s.mode, ModeAwakeIdle)
	}
	// Decide must only ever see real upcoming arrivals: strictly positive
	// gaps, and never a call for the post-trace drain.
	if len(rec.oracles) == 0 {
		t.Fatal("DPM policy never consulted")
	}
	for i, o := range rec.oracles {
		if o <= 0 {
			t.Errorf("Decide call %d saw non-positive oracle idle %v", i, o)
		}
	}
	// A fixed timeout sleeps exactly in the idle periods longer than tau, so
	// the realised sleep count is pinned by the recorded oracles. A spurious
	// sleep at drain (or a stale-peek shortfall) breaks the equality.
	want := 0
	for _, o := range rec.oracles {
		if o > tau {
			want++
		}
	}
	if res.Sleeps != want {
		t.Errorf("Sleeps = %d, want %d (idle periods longer than %gs)", res.Sleeps, want, tau)
	}
}

// TestNextPopsTiesInScheduleOrder pins the slot queue's order: the earliest
// time first, and events due at the same time in the order they were
// scheduled, never by kind index. Same-instant events are routine (a wake-up
// and an arrival, a decode completion and an arrival), and their order
// decides which one sees the other's state.
func TestNextPopsTiesInScheduleOrder(t *testing.T) {
	for _, order := range [][2]eventKind{{evWakeDone, evArrival}, {evArrival, evWakeDone}} {
		s := &Simulator{}
		s.schedule(evSleepTimer, event{time: 2})
		s.schedule(order[0], event{time: 1})
		s.schedule(order[1], event{time: 1})
		for i, want := range []eventKind{order[0], order[1], evSleepTimer} {
			if k, _, ok := s.next(); !ok || k != want {
				t.Errorf("schedule order %v: pop %d = kind %d (ok %v), want %d", order, i, k, ok, want)
			}
		}
		if k, _, ok := s.next(); ok {
			t.Errorf("schedule order %v: kind %d popped from an empty queue", order, k)
		}
	}
}

// TestScheduleIntoOccupiedSlotIsInternalError: at most one event of each kind
// is ever pending, and a second one is a simulator bug, not a silent
// overwrite.
func TestScheduleIntoOccupiedSlotIsInternalError(t *testing.T) {
	s := &Simulator{}
	s.schedule(evDecodeDone, event{time: 1})
	defer func() {
		if _, ok := recover().(*InternalError); !ok {
			t.Error("scheduling into an occupied slot did not panic with *InternalError")
		}
	}()
	s.schedule(evDecodeDone, event{time: 2})
}

// TestEventsScheduledPerRun pins how many events two fixed runs schedule, the
// simulator's per-frame event cost: a change that schedules more per frame
// fails here, and one that schedules fewer updates this table.
func TestEventsScheduledPerRun(t *testing.T) {
	for _, c := range []struct {
		seed uint64
		want int64
	}{{1, 40356}, {7, 40500}} {
		badge := device.SmartBadge()
		pol, err := dpm.NewFixedTimeout(dpm.CostsForBadge(badge, device.Standby).BreakEven(), device.Standby)
		if err != nil {
			t.Fatal(err)
		}
		s, err := New(Config{
			Badge:      badge,
			Proc:       sa1100.Default(),
			Trace:      gapTrace(t, c.seed),
			Controller: idealController(t, perfmodel.MP3Curve(), 0.15, false),
			DPM:        pol,
			Kind:       workload.MP3,
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Run(); err != nil {
			t.Fatal(err)
		}
		if s.seq != c.want {
			t.Errorf("seed %d: scheduled %d events, want %d", c.seed, s.seq, c.want)
		}
	}
}
