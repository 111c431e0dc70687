package experiments

import (
	"context"
	"math"
	"strings"
	"testing"
)

func TestTable1Shape(t *testing.T) {
	rows := Table1()
	if len(rows) != 7 {
		t.Fatalf("rows = %d, want 7", len(rows))
	}
	text := FormatTable1(rows)
	if !strings.Contains(text, "Table 1") || !strings.Contains(text, "Total") {
		t.Error("rendering incomplete")
	}
}

func TestFig3Shape(t *testing.T) {
	rows := Fig3()
	if len(rows) != 12 {
		t.Fatalf("rows = %d, want 12 ladder points", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].VoltageV <= rows[i-1].VoltageV || rows[i].FrequencyMHz <= rows[i-1].FrequencyMHz {
			t.Error("Figure 3 curve must rise monotonically")
		}
	}
	if s := FormatFig3(rows); !strings.Contains(s, "221.2") {
		t.Error("top frequency missing from rendering")
	}
}

func TestFig4Fig5Shapes(t *testing.T) {
	mp3 := Fig4()
	mpeg := Fig5()
	// Normalisation at the top point.
	last3, last5 := mp3[len(mp3)-1], mpeg[len(mpeg)-1]
	if math.Abs(last3.PerfRatio-1) > 1e-9 || math.Abs(last3.EnergyRatio-1) > 1e-9 {
		t.Error("Fig4 not normalised at fmax")
	}
	if math.Abs(last5.PerfRatio-1) > 1e-9 || math.Abs(last5.EnergyRatio-1) > 1e-9 {
		t.Error("Fig5 not normalised at fmax")
	}
	// The paper's qualitative claim: MP3 performance is sub-linear
	// (memory-bound), MPEG is almost linear.
	fr := mp3[0].FrequencyMHz / last3.FrequencyMHz
	if mp3[0].PerfRatio < fr*1.3 {
		t.Errorf("Fig4 bottom point perf %v not clearly above linear %v", mp3[0].PerfRatio, fr)
	}
	if mpeg[0].PerfRatio > fr*1.15 {
		t.Errorf("Fig5 bottom point perf %v not近 linear %v", mpeg[0].PerfRatio, fr)
	}
	// Energy decreases with frequency for both (the DVS rationale).
	if mp3[0].EnergyRatio >= 1 || mpeg[0].EnergyRatio >= 1 {
		t.Error("slowest point must cost less energy per frame")
	}
	if s := FormatPerfEnergy("Fig4", mp3); !strings.Contains(s, "Energy") {
		t.Error("rendering incomplete")
	}
}

func TestFig6FitError(t *testing.T) {
	r, err := Fig6(42)
	if err != nil {
		t.Fatal(err)
	}
	// Paper: average fitting error 8 %. Accept a 4-12 % band.
	if r.MeanAbsError < 0.04 || r.MeanAbsError > 0.12 {
		t.Errorf("fit error = %.1f%%, want 4-12%% (paper: 8%%)", r.MeanAbsError*100)
	}
	if r.FittedRate < 15 || r.FittedRate > 40 {
		t.Errorf("fitted rate = %v, want near the generating band", r.FittedRate)
	}
	if len(r.CDF) != 30 {
		t.Errorf("CDF points = %d, want 30", len(r.CDF))
	}
	// Empirical CDF must be monotone in the rendered points.
	for i := 1; i < len(r.CDF); i++ {
		if r.CDF[i].Empirical < r.CDF[i-1].Empirical {
			t.Error("empirical CDF not monotone")
		}
	}
	if s := FormatFig6(r); !strings.Contains(s, "fitting error") {
		t.Error("rendering incomplete")
	}
}

func TestFig9Shape(t *testing.T) {
	rows := Fig9()
	if len(rows) != 12 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Both series increase with frequency; WLAN rate = CPU rate - 10.
	for i, r := range rows {
		if i > 0 {
			if r.CPURate <= rows[i-1].CPURate {
				t.Error("CPU rate must increase with frequency")
			}
			if r.WLANRate < rows[i-1].WLANRate {
				t.Error("WLAN rate must not decrease with frequency")
			}
		}
		if r.WLANRate > 0 {
			if math.Abs(r.CPURate-r.WLANRate-10) > 1e-9 {
				t.Errorf("delay constraint broken at %v MHz: µ−λ = %v, want 10",
					r.FrequencyMHz, r.CPURate-r.WLANRate)
			}
		}
	}
	if s := FormatFig9(rows); !strings.Contains(s, "WLAN rate") {
		t.Error("rendering incomplete")
	}
}

func TestFig10DetectionTransient(t *testing.T) {
	r, err := Fig10(7)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 240 {
		t.Fatalf("rows = %d, want 240", len(r.Rows))
	}
	// Ideal switches instantly at the step.
	if r.Rows[119].Ideal != 10 || r.Rows[120].Ideal != 60 {
		t.Error("ideal detector did not switch at the step")
	}
	// Change point reacts within ~25 frames (paper: ~10 of ideal).
	if r.ChangePointLatency < 0 || r.ChangePointLatency > 25 {
		t.Errorf("change-point reaction latency = %d frames", r.ChangePointLatency)
	}
	// Stability: after settling, the change-point estimate holds the true
	// rate while the exponential averages keep oscillating. Compare the
	// variance of the two estimates over the final 60 frames.
	var cpVar, eaVar, cpMean, eaMean float64
	n := 0.0
	for _, row := range r.Rows[180:] {
		cpMean += row.ChangePoint
		eaMean += row.ExpAvg05
		n++
	}
	cpMean /= n
	eaMean /= n
	for _, row := range r.Rows[180:] {
		cpVar += (row.ChangePoint - cpMean) * (row.ChangePoint - cpMean)
		eaVar += (row.ExpAvg05 - eaMean) * (row.ExpAvg05 - eaMean)
	}
	if cpVar >= eaVar {
		t.Errorf("change point (var %v) should be more stable than exp average (var %v)", cpVar/n, eaVar/n)
	}
	if s := FormatFig10(r); !strings.Contains(s, "changepoint") {
		t.Error("rendering incomplete")
	}
}

func TestFig7Shape(t *testing.T) {
	r, err := Fig7(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) < 10 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	// The composite idle model (short exponential bulk + long Pareto tail)
	// must yield wait-then-sleep: waiting through the short-gap bulk, then
	// sleeping, with a finite effective timeout.
	if r.Rows[0].Action != "wait" {
		t.Error("should wait at idle entry (short gaps dominate)")
	}
	if math.IsInf(r.Timeout, 1) {
		t.Error("policy should eventually sleep on the heavy tail")
	}
	last := r.Rows[len(r.Rows)-1]
	if last.Action != "sleep" {
		t.Error("deep in the tail the policy must sleep")
	}
	if s := FormatFig7(r); !strings.Contains(s, "sleep") || !strings.Contains(s, "wait") {
		t.Error("rendering incomplete")
	}
}

func TestFig8Shape(t *testing.T) {
	rows := Fig8()
	if len(rows) != 12 {
		t.Fatalf("rows = %d, want 12 sub-states", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].MP3Rate <= rows[i-1].MP3Rate || rows[i].MPEGRate <= rows[i-1].MPEGRate {
			t.Error("service rates must increase with frequency")
		}
		if rows[i].PowerW <= rows[i-1].PowerW {
			t.Error("power must increase with frequency")
		}
	}
	// Memory-bound MP3 keeps a larger fraction of its top rate at the
	// slowest sub-state than the CPU-bound MPEG.
	mp3Frac := rows[0].MP3Rate / rows[len(rows)-1].MP3Rate
	mpegFrac := rows[0].MPEGRate / rows[len(rows)-1].MPEGRate
	if mp3Frac <= mpegFrac {
		t.Errorf("MP3 fraction %v should exceed MPEG %v at the slowest sub-state", mp3Frac, mpegFrac)
	}
	if s := FormatFig8(rows); !strings.Contains(s, "sub-states") {
		t.Error("rendering incomplete")
	}
}

func TestBreakdownShape(t *testing.T) {
	rows, names, err := Breakdown(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 || len(names) != 4 {
		t.Fatalf("rows/names = %d/%d", len(rows), len(names))
	}
	byComp := map[string]BreakdownRow{}
	for _, r := range rows {
		byComp[r.Component] = r
	}
	cpu := byComp["SA-1100"]
	// DVS must cut CPU energy versus None, and Both versus DPM.
	if !(cpu.EnergyJ["DVS"] < cpu.EnergyJ["None"]) {
		t.Errorf("CPU energy DVS %v !< None %v", cpu.EnergyJ["DVS"], cpu.EnergyJ["None"])
	}
	if !(cpu.EnergyJ["Both"] < cpu.EnergyJ["DPM"]) {
		t.Errorf("CPU energy Both %v !< DPM %v", cpu.EnergyJ["Both"], cpu.EnergyJ["DPM"])
	}
	// DPM must slash the radio's idle-listening energy.
	wlanRow := byComp["WLAN RF"]
	if !(wlanRow.EnergyJ["DPM"] < 0.5*wlanRow.EnergyJ["None"]) {
		t.Errorf("WLAN energy DPM %v not well below None %v", wlanRow.EnergyJ["DPM"], wlanRow.EnergyJ["None"])
	}
	if s := FormatBreakdown(rows, names); !strings.Contains(s, "Total") {
		t.Error("rendering incomplete")
	}
}

func TestTable2Shape(t *testing.T) {
	rows := Table2()
	if len(rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(rows))
	}
	if s := FormatTable2(rows); !strings.Contains(s, "Sample (KHz)") {
		t.Error("rendering incomplete")
	}
}

// The core Table 3 claim: Energy(Ideal) <= Energy(ChangePoint) <
// Energy(ExpAvg..Max ordering), ChangePoint within a few percent of Ideal,
// and the delay near the target for Ideal/ChangePoint.
func TestTable3Shape(t *testing.T) {
	rows, err := Table3(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3 sequences", len(rows))
	}
	for _, row := range rows {
		cells := map[PolicyKind]DVSCell{}
		for _, c := range row.Cells {
			cells[c.Policy] = c
		}
		id, cp, ea, mx := cells[Ideal], cells[ChangePoint], cells[ExpAvg], cells[Max]
		if !(id.EnergyKJ <= cp.EnergyKJ*1.02) {
			t.Errorf("%s: ideal %v should not exceed change point %v", row.Workload, id.EnergyKJ, cp.EnergyKJ)
		}
		if !(cp.EnergyKJ < mx.EnergyKJ) {
			t.Errorf("%s: change point %v must beat max %v", row.Workload, cp.EnergyKJ, mx.EnergyKJ)
		}
		if cp.EnergyKJ > id.EnergyKJ*1.10 {
			t.Errorf("%s: change point %v more than 10%% above ideal %v", row.Workload, cp.EnergyKJ, id.EnergyKJ)
		}
		if !(ea.EnergyKJ > cp.EnergyKJ) {
			t.Errorf("%s: exp average %v should cost more than change point %v", row.Workload, ea.EnergyKJ, cp.EnergyKJ)
		}
		// Delay targets: 0.15 s for audio; ideal and change point close to it.
		if id.FrameDelay > 0.15*1.3 {
			t.Errorf("%s: ideal delay %v above target band", row.Workload, id.FrameDelay)
		}
		if cp.FrameDelay > 0.15*2.0 {
			t.Errorf("%s: change-point delay %v way above target", row.Workload, cp.FrameDelay)
		}
		// Max runs flat out: smallest delay of all.
		if mx.FrameDelay > id.FrameDelay {
			t.Errorf("%s: max delay %v above ideal %v", row.Workload, mx.FrameDelay, id.FrameDelay)
		}
	}
	if s := FormatDVSTable("Table 3: MP3 audio DVS", rows); !strings.Contains(s, "ACEFBD") {
		t.Error("rendering incomplete")
	}
}

func TestTable4Shape(t *testing.T) {
	rows, err := Table4(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2 clips", len(rows))
	}
	// The paper: "the exponential average shows poor performance ... due to
	// its instability" — on the high-variance video workload its delay must
	// blow far past the 0.1 s target on at least one clip.
	worstEA := 0.0
	for _, row := range rows {
		for _, c := range row.Cells {
			if c.Policy == ExpAvg && c.FrameDelay > worstEA {
				worstEA = c.FrameDelay
			}
		}
	}
	if worstEA < 1.0 {
		t.Errorf("exp average worst delay = %v s; expected instability blow-up on MPEG", worstEA)
	}
	for _, row := range rows {
		cells := map[PolicyKind]DVSCell{}
		for _, c := range row.Cells {
			cells[c.Policy] = c
		}
		id, cp, mx := cells[Ideal], cells[ChangePoint], cells[Max]
		if !(cp.EnergyKJ < mx.EnergyKJ) {
			t.Errorf("%s: change point %v must beat max %v", row.Workload, cp.EnergyKJ, mx.EnergyKJ)
		}
		if cp.EnergyKJ > id.EnergyKJ*1.12 {
			t.Errorf("%s: change point %v not close to ideal %v", row.Workload, cp.EnergyKJ, id.EnergyKJ)
		}
		if id.FrameDelay > 0.1*1.4 {
			t.Errorf("%s: ideal delay %v above 0.1 s band", row.Workload, id.FrameDelay)
		}
	}
}

// Table 5's headline: combining DVS and DPM saves about a factor of three.
func TestTable5Shape(t *testing.T) {
	rows, err := Table5(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(rows))
	}
	byName := map[string]Table5Row{}
	for _, r := range rows {
		byName[r.Algorithm] = r
	}
	none, dvs, dpmRow, both := byName["None"], byName["DVS"], byName["DPM"], byName["Both"]
	if !(both.EnergyKJ < dpmRow.EnergyKJ && dpmRow.EnergyKJ < none.EnergyKJ) {
		t.Errorf("ordering broken: both %v, dpm %v, none %v", both.EnergyKJ, dpmRow.EnergyKJ, none.EnergyKJ)
	}
	if !(dvs.EnergyKJ < none.EnergyKJ) {
		t.Errorf("DVS %v should beat none %v", dvs.EnergyKJ, none.EnergyKJ)
	}
	if both.Factor < 2.5 {
		t.Errorf("combined factor = %v, want >= 2.5 (paper: ~3)", both.Factor)
	}
	if none.Factor != 1 {
		t.Errorf("baseline factor = %v, want 1", none.Factor)
	}
	if dpmRow.Sleeps == 0 || both.Sleeps == 0 {
		t.Error("DPM rows must actually sleep")
	}
	if none.Sleeps != 0 || dvs.Sleeps != 0 {
		t.Error("non-DPM rows must not sleep")
	}
	if s := FormatTable5(rows); !strings.Contains(s, "Factor") {
		t.Error("rendering incomplete")
	}
}

func TestParetoFrontierShape(t *testing.T) {
	points, err := ParetoFrontier(context.Background(), 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 11 {
		t.Fatalf("points = %d, want 11", len(points))
	}
	byLabel := map[string]ParetoPoint{}
	for _, p := range points {
		byLabel[p.Label] = p
		if p.CPUPowerW <= 0 || p.MeanDelayMS <= 0 {
			t.Errorf("%s: degenerate point %+v", p.Label, p)
		}
	}
	// Within the M/M/1 family, looser targets must cost less CPU power and
	// more delay.
	tight := byLabel["mm1(W=0.05s)"]
	loose := byLabel["mm1(W=0.40s)"]
	if !(loose.CPUPowerW < tight.CPUPowerW && loose.MeanDelayMS > tight.MeanDelayMS) {
		t.Errorf("M/M/1 family not a trade-off: tight %+v loose %+v", tight, loose)
	}
	// Within the MDP family, a higher delay price buys lower delay at higher
	// power.
	cheap := byLabel["mdp(β=0.02W)"]
	dear := byLabel["mdp(β=2W)"]
	if !(dear.MeanDelayMS < cheap.MeanDelayMS && dear.CPUPowerW > cheap.CPUPowerW) {
		t.Errorf("MDP family not a trade-off: cheap %+v dear %+v", cheap, dear)
	}
	// The fastest fixed frequency has the highest CPU power of all points.
	top := byLabel["fixed(221.2MHz)"]
	for _, p := range points {
		if p.CPUPowerW > top.CPUPowerW*1.001 {
			t.Errorf("%s draws more CPU power than flat-out", p.Label)
		}
	}
	if s := FormatPareto(points); !strings.Contains(s, "frontier") {
		t.Error("rendering incomplete")
	}
}

func TestWakeProbSweepShape(t *testing.T) {
	points, err := WakeProbSweep(context.Background(), 1, []float64{1, 0.0001}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("points = %d", len(points))
	}
	loose, tight := points[0], points[1]
	// The tight constraint must raise the timeout and cost energy.
	if !(tight.TimeoutS > loose.TimeoutS) {
		t.Errorf("tight timeout %v not above loose %v", tight.TimeoutS, loose.TimeoutS)
	}
	if !(tight.EnergyKJ > loose.EnergyKJ) {
		t.Errorf("tight energy %v not above loose %v", tight.EnergyKJ, loose.EnergyKJ)
	}
	// The constraint is enforced against the *fitted* idle model; with only
	// a handful of long gaps per realisation the realised probability can
	// differ by small-sample noise, but it must drop well below the loose
	// point's and stay within an order of magnitude of the target.
	if tight.MeasuredWakeProb >= loose.MeasuredWakeProb {
		t.Errorf("tight realised wake prob %v not below loose %v",
			tight.MeasuredWakeProb, loose.MeasuredWakeProb)
	}
	if tight.MeasuredWakeProb > 0.0001*10 {
		t.Errorf("realised wake probability %v an order of magnitude off the 1e-4 constraint", tight.MeasuredWakeProb)
	}
	if _, err := WakeProbSweep(context.Background(), 1, nil, 0); err == nil {
		t.Error("empty sweep accepted")
	}
	if s := FormatWakeProbSweep(points); !strings.Contains(s, "constrained") {
		t.Error("rendering incomplete")
	}
}

func TestPolicyKindString(t *testing.T) {
	for _, p := range Policies() {
		if p.String() == "" || strings.HasPrefix(p.String(), "PolicyKind") {
			t.Errorf("bad name for %d", p)
		}
	}
	if PolicyKind(9).String() != "PolicyKind(9)" {
		t.Error("unknown kind string")
	}
}

func TestAppConfigs(t *testing.T) {
	for _, app := range []App{MP3App(), MPEGApp(), MixedApp()} {
		if app.TargetDelay <= 0 || app.Curve == nil {
			t.Error("incomplete app config")
		}
		if len(app.ArrivalGrid) < 2 || len(app.ServiceGrid) < 2 {
			t.Error("grids too small")
		}
	}
}
