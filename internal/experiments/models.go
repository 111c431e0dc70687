package experiments

import (
	"fmt"
	"math"
	"strings"

	"smartbadge/internal/device"
	"smartbadge/internal/dpm"
	"smartbadge/internal/sa1100"
	"smartbadge/internal/tismdp"
)

// Figures 7 and 8 of the paper are model-structure diagrams: Figure 7 shows
// the idle and sleep states expanded with a time index (because idle times
// are not exponential, the decision depends on how long the system has been
// idle), and Figure 8 shows the active state expanded into one sub-state per
// CPU frequency/voltage pair. These experiments render the same structures
// as data: the solved time-indexed policy (which action each index takes)
// and the active-state expansion over the SA-1100 ladder.

// Fig7Row is one time-indexed idle state with the solved TISMDP action.
type Fig7Row struct {
	// FromS/ToS bound the time index ("idle for t in [FromS, ToS)").
	FromS, ToS float64
	// Action is "wait" or "sleep".
	Action string
	// CostToGo is the DP value at this index (expected J for the remainder
	// of the idle period under the optimal policy).
	CostToGo float64
}

// Fig7Result is the rendered time-indexed model of Figure 7.
type Fig7Result struct {
	Rows []Fig7Row
	// Timeout is the effective timeout implied by the first sleep index.
	Timeout float64
	// BreakEven is the hardware break-even time for reference.
	BreakEven float64
}

// Fig7 solves the time-indexed model for the combined scenario's idle-time
// distribution and renders the per-index decisions.
func Fig7(seed uint64) (*Fig7Result, error) {
	tr, err := Table5Workload(seed)
	if err != nil {
		return nil, err
	}
	costs := dpm.CostsForBadge(device.SmartBadge(), device.Standby)
	pol, err := tismdp.Solve(tismdp.Config{
		Idle:   tr.IdleModel(),
		Costs:  costs,
		Target: device.Standby,
	})
	if err != nil {
		return nil, err
	}
	edges := pol.Edges()
	actions := pol.Actions()
	res := &Fig7Result{Timeout: pol.Timeout(), BreakEven: costs.BreakEven()}
	for i, a := range actions {
		to := math.Inf(1)
		if i+1 < len(edges) {
			to = edges[i+1]
		}
		act := "wait"
		if a {
			act = "sleep"
		}
		res.Rows = append(res.Rows, Fig7Row{FromS: edges[i], ToS: to, Action: act})
	}
	return res, nil
}

// FormatFig7 renders Figure 7, compressing runs of identical actions.
func FormatFig7(r *Fig7Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 7: time-indexed idle states (TISMDP) — decision per elapsed-idle index\n")
	fmt.Fprintf(&b, "break-even %.3fs; effective timeout %.3fs\n", r.BreakEven, r.Timeout)
	fmt.Fprintf(&b, "%22s %8s\n", "idle for t in", "action")
	i := 0
	for i < len(r.Rows) {
		j := i
		for j+1 < len(r.Rows) && r.Rows[j+1].Action == r.Rows[i].Action {
			j++
		}
		to := r.Rows[j].ToS
		toStr := fmt.Sprintf("%8.3fs", to)
		if math.IsInf(to, 1) {
			toStr = "     inf"
		}
		fmt.Fprintf(&b, "  [%8.3fs, %s) %8s\n", r.Rows[i].FromS, toStr, r.Rows[i].Action)
		i = j + 1
	}
	return b.String()
}

// Fig8Row is one expanded active sub-state of Figure 8: a frequency/voltage
// pair with the service rates it sustains for each application.
type Fig8Row struct {
	FrequencyMHz float64
	VoltageV     float64
	PowerW       float64
	// MP3Rate and MPEGRate are the decode rates (fr/s) this sub-state
	// sustains for a mid-catalogue clip of each kind.
	MP3Rate  float64
	MPEGRate float64
}

// Fig8 renders the active-state expansion: one sub-state per SA-1100
// operating point, with the per-application service rates that make the
// multi-rate M/M/1 model of the expanded state space concrete.
func Fig8() []Fig8Row {
	proc := sa1100.Default()
	mp3 := MP3App()
	mpeg := MPEGApp()
	// Mid-catalogue decode rates at full speed.
	const mp3Max, mpegMax = 110.0, 48.0
	fMax := proc.Max().FrequencyMHz
	rows := make([]Fig8Row, proc.NumPoints())
	for i, p := range proc.Points() {
		fr := p.FrequencyMHz / fMax
		rows[i] = Fig8Row{
			FrequencyMHz: p.FrequencyMHz,
			VoltageV:     p.VoltageV,
			PowerW:       p.ActivePowerW,
			MP3Rate:      mp3Max * mp3.Curve.PerfRatio(fr),
			MPEGRate:     mpegMax * mpeg.Curve.PerfRatio(fr),
		}
	}
	return rows
}

// FormatFig8 renders Figure 8.
func FormatFig8(rows []Fig8Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 8: active state expanded into frequency/voltage sub-states\n")
	fmt.Fprintf(&b, "%12s %8s %10s %14s %14s\n", "f (MHz)", "V (V)", "P (mW)", "MP3 µ (fr/s)", "MPEG µ (fr/s)")
	for _, r := range rows {
		fmt.Fprintf(&b, "%12.1f %8.3f %10.1f %14.1f %14.1f\n",
			r.FrequencyMHz, r.VoltageV, r.PowerW*1000, r.MP3Rate, r.MPEGRate)
	}
	return b.String()
}

// BreakdownRow is one component's share of a run's energy under each of the
// Table 5 configurations.
type BreakdownRow struct {
	Component string
	EnergyJ   map[string]float64 // keyed by configuration name
}

// Breakdown measures the per-component energy split of the combined
// scenario under None / DVS / DPM / Both — where each policy's savings
// actually come from.
func Breakdown(seed uint64) ([]BreakdownRow, []string, error) {
	tr, err := Table5Workload(seed)
	if err != nil {
		return nil, nil, err
	}
	badge := device.SmartBadge()
	costs := dpm.CostsForBadge(badge, device.Standby)
	idleModel := tr.IdleModel()
	app := MixedApp()
	type cfg struct {
		name   string
		policy PolicyKind
		mkDPM  func() (dpm.Policy, error)
	}
	configs := []cfg{
		{"None", Max, func() (dpm.Policy, error) { return dpm.AlwaysOn{}, nil }},
		{"DVS", ChangePoint, func() (dpm.Policy, error) { return dpm.AlwaysOn{}, nil }},
		{"DPM", Max, func() (dpm.Policy, error) {
			return dpm.NewRenewalTimeout(idleModel, costs, device.Standby, 0)
		}},
		{"Both", ChangePoint, func() (dpm.Policy, error) {
			return dpm.NewRenewalTimeout(idleModel, costs, device.Standby, 0)
		}},
	}
	names := make([]string, 0, len(configs))
	perConfig := map[string]map[string]float64{}
	for _, c := range configs {
		pol, err := c.mkDPM()
		if err != nil {
			return nil, nil, err
		}
		res, err := RunPolicy(c.policy, app, tr, pol, nil)
		if err != nil {
			return nil, nil, fmt.Errorf("breakdown %s: %w", c.name, err)
		}
		names = append(names, c.name)
		perConfig[c.name] = res.EnergyByComponent
	}
	rows := make([]BreakdownRow, 0, 6)
	for _, comp := range badge.Components() {
		row := BreakdownRow{Component: comp.Name, EnergyJ: map[string]float64{}}
		for _, n := range names {
			row.EnergyJ[n] = perConfig[n][comp.Name]
		}
		rows = append(rows, row)
	}
	return rows, names, nil
}

// FormatBreakdown renders the per-component energy comparison.
func FormatBreakdown(rows []BreakdownRow, names []string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Energy by component (J) across the Table 5 configurations\n")
	fmt.Fprintf(&b, "%-10s", "Component")
	for _, n := range names {
		fmt.Fprintf(&b, " %10s", n)
	}
	fmt.Fprintln(&b)
	totals := make([]float64, len(names))
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s", r.Component)
		for i, n := range names {
			fmt.Fprintf(&b, " %10.1f", r.EnergyJ[n])
			totals[i] += r.EnergyJ[n]
		}
		fmt.Fprintln(&b)
	}
	fmt.Fprintf(&b, "%-10s", "Total")
	for _, t := range totals {
		fmt.Fprintf(&b, " %10.1f", t)
	}
	fmt.Fprintln(&b)
	return b.String()
}
