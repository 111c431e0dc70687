package experiments

import (
	"fmt"
	"strings"

	"smartbadge/internal/changepoint"
	"smartbadge/internal/device"
	"smartbadge/internal/dpm"
	"smartbadge/internal/stats"
	"smartbadge/internal/units"
	"smartbadge/internal/workload"
)

// Table1 returns the SmartBadge component table (Table 1 of the paper).
func Table1() []device.TableRow { return device.SmartBadge().Table1() }

// FormatTable1 renders Table 1.
func FormatTable1(rows []device.TableRow) string {
	return "Table 1: SmartBadge components\n" + device.FormatTable1(rows)
}

// Table2Row is one clip of the MP3 catalogue (Table 2).
type Table2Row struct {
	Clip          string
	BitrateKbps   float64
	SampleRateKHz float64
	DecodeRate    float64 // frames/s at 221.2 MHz
	ArrivalRate   float64 // playback frame rate implied by the sample rate
	DurationS     float64
}

// Table2 returns the MP3 clip catalogue.
func Table2() []Table2Row {
	clips := workload.MP3Clips()
	rows := make([]Table2Row, len(clips))
	for i, c := range clips {
		rows[i] = Table2Row{
			Clip:          c.Label,
			BitrateKbps:   c.BitrateKbps,
			SampleRateKHz: c.SampleRateKHz,
			DecodeRate:    c.MeanDecodeRateMax(),
			ArrivalRate:   c.MeanArrivalRate(),
			DurationS:     c.Duration(),
		}
	}
	return rows
}

// FormatTable2 renders Table 2.
func FormatTable2(rows []Table2Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 2: MP3 audio streams\n")
	fmt.Fprintf(&b, "%5s %12s %14s %14s %14s %10s\n",
		"Clip", "Bit (Kb/s)", "Sample (KHz)", "Dec (fr/s)", "Arr (fr/s)", "Len (s)")
	for _, r := range rows {
		fmt.Fprintf(&b, "%5s %12.0f %14.2f %14.1f %14.1f %10.0f\n",
			r.Clip, r.BitrateKbps, r.SampleRateKHz, r.DecodeRate, r.ArrivalRate, r.DurationS)
	}
	return b.String()
}

// DVSCell is one policy's outcome on one workload (a cell pair of
// Tables 3 and 4: energy plus average total frame delay).
type DVSCell struct {
	Policy     PolicyKind
	EnergyKJ   float64
	FrameDelay float64
	// Diagnostics beyond the paper's cells.
	Reconfigurations int
	MeanFreqMHz      float64
}

// DVSRow is one workload row of Tables 3/4: the four policy cells.
type DVSRow struct {
	Workload string
	Cells    []DVSCell
}

// Table3Sequences lists the paper's three MP3 clip orderings.
func Table3Sequences() []string { return []string{"ACEFBD", "BADECF", "CEDAFB"} }

// Table3 runs the MP3 DVS comparison: three six-clip sequences, four
// policies each.
func Table3(seed uint64) ([]DVSRow, error) {
	app := MP3App()
	var rows []DVSRow
	for i, seq := range Table3Sequences() {
		clips, err := workload.MP3Sequence(seq)
		if err != nil {
			return nil, err
		}
		tr, err := workload.Generate(stats.NewRNG(seed+uint64(i)), clips, workload.GenerateOptions{})
		if err != nil {
			return nil, err
		}
		row := DVSRow{Workload: seq}
		for _, p := range Policies() {
			res, err := RunPolicy(p, app, tr, dpm.AlwaysOn{}, nil)
			if err != nil {
				return nil, fmt.Errorf("table3 %s/%v: %w", seq, p, err)
			}
			row.Cells = append(row.Cells, DVSCell{
				Policy:           p,
				EnergyKJ:         units.JToKJ(res.EnergyJ),
				FrameDelay:       res.FrameDelay.Mean(),
				Reconfigurations: res.Reconfigurations,
				MeanFreqMHz:      res.FreqTime.Mean(),
			})
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// Table4 runs the MPEG DVS comparison on the two video clips.
func Table4(seed uint64) ([]DVSRow, error) {
	app := MPEGApp()
	var rows []DVSRow
	for i, clip := range workload.MPEGClips() {
		tr, err := workload.Generate(stats.NewRNG(seed+uint64(100+i)), []workload.Clip{clip}, workload.GenerateOptions{})
		if err != nil {
			return nil, err
		}
		row := DVSRow{Workload: fmt.Sprintf("%s (%.0fs)", clip.Label, clip.Duration())}
		for _, p := range Policies() {
			res, err := RunPolicy(p, app, tr, dpm.AlwaysOn{}, nil)
			if err != nil {
				return nil, fmt.Errorf("table4 %s/%v: %w", clip.Label, p, err)
			}
			row.Cells = append(row.Cells, DVSCell{
				Policy:           p,
				EnergyKJ:         units.JToKJ(res.EnergyJ),
				FrameDelay:       res.FrameDelay.Mean(),
				Reconfigurations: res.Reconfigurations,
				MeanFreqMHz:      res.FreqTime.Mean(),
			})
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatDVSTable renders a Table 3/4-style comparison in the paper's layout:
// per workload, an Energy row and a Fr.Delay row across the policy columns.
func FormatDVSTable(title string, rows []DVSRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%-18s %-12s", "Workload", "Result")
	for _, p := range Policies() {
		fmt.Fprintf(&b, " %14s", p)
	}
	fmt.Fprintln(&b)
	for _, r := range rows {
		fmt.Fprintf(&b, "%-18s %-12s", r.Workload, "Energy (kJ)")
		for _, c := range r.Cells {
			fmt.Fprintf(&b, " %14.3f", c.EnergyKJ)
		}
		fmt.Fprintln(&b)
		fmt.Fprintf(&b, "%-18s %-12s", "", "Fr.Delay (s)")
		for _, c := range r.Cells {
			fmt.Fprintf(&b, " %14.3f", c.FrameDelay)
		}
		fmt.Fprintln(&b)
	}
	return b.String()
}

// Table5Row is one configuration of the combined DVS+DPM comparison.
type Table5Row struct {
	Algorithm  string
	EnergyKJ   float64
	Factor     float64 // energy(None) / energy(this)
	Sleeps     int
	FrameDelay float64
	IdleFrac   float64 // fraction of time spent outside decode
}

// Table5Workload builds the combined scenario: audio and video clips
// separated by long, heavy-tailed idle periods. The clips are shortened cuts
// (a user sampling media), keeping the active fraction near one third so the
// idle-time policy has real opportunity, as in the paper's description.
func Table5Workload(seed uint64) (*workload.Trace, error) {
	return Table5WorkloadInto(nil, seed)
}

// Table5WorkloadInto is Table5Workload generated into dst with
// workload.GenerateInto, whose recycling contract it shares.
func Table5WorkloadInto(dst *workload.Trace, seed uint64) (*workload.Trace, error) {
	shorten := func(c workload.Clip, keep int) workload.Clip {
		c.Segments = c.Segments[:keep]
		return c
	}
	clips := []workload.Clip{
		mustMP3("A"),
		shorten(workload.Football(), 2),
		mustMP3("C"),
		shorten(workload.Terminator2(), 2),
		mustMP3("E"),
		mustMP3("B"),
	}
	return workload.GenerateInto(dst, stats.NewRNG(seed), clips, workload.GenerateOptions{
		Gap: Table5GapDistribution(),
	})
}

func mustMP3(label string) workload.Clip {
	c, ok := workload.MP3ClipByLabel(label)
	if !ok {
		panic("experiments: unknown MP3 clip " + label)
	}
	return c
}

// Table5 runs the four configurations of the combined experiment:
// no power management, DVS only, DPM only, and both.
func Table5(seed uint64) ([]Table5Row, error) {
	tr, err := Table5Workload(seed)
	if err != nil {
		return nil, err
	}
	badge := device.SmartBadge()
	costs := dpm.CostsForBadge(badge, device.Standby)
	idleModel := tr.IdleModel()
	newDPM := func() (dpm.Policy, error) {
		return dpm.NewRenewalTimeout(idleModel, costs, device.Standby, 0)
	}
	// The mixed trace spans audio and video; run the controller with the
	// video app config (conservative delay target) — the simulator switches
	// the active memory per clip.
	app := MixedApp()

	type cfg struct {
		name   string
		policy PolicyKind
		dpmNew func() (dpm.Policy, error)
	}
	configs := []cfg{
		{"None", Max, func() (dpm.Policy, error) { return dpm.AlwaysOn{}, nil }},
		{"DVS", ChangePoint, func() (dpm.Policy, error) { return dpm.AlwaysOn{}, nil }},
		{"DPM", Max, newDPM},
		{"Both", ChangePoint, newDPM},
	}
	var rows []Table5Row
	baseline := 0.0
	for _, c := range configs {
		pol, err := c.dpmNew()
		if err != nil {
			return nil, err
		}
		res, err := RunPolicy(c.policy, app, tr, pol, nil)
		if err != nil {
			return nil, fmt.Errorf("table5 %s: %w", c.name, err)
		}
		row := Table5Row{
			Algorithm:  c.name,
			EnergyKJ:   units.JToKJ(res.EnergyJ),
			Sleeps:     res.Sleeps,
			FrameDelay: res.FrameDelay.Mean(),
			IdleFrac:   1 - res.TimeInMode[0]/res.SimTime,
		}
		if c.name == "None" {
			baseline = row.EnergyKJ
		}
		if row.EnergyKJ > 0 {
			row.Factor = baseline / row.EnergyKJ
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// MixedApp is the controller configuration for the combined audio+video
// scenario: video curve (the tighter of the two) and the union rate grids.
func MixedApp() App {
	app := MPEGApp()
	// Arrival rates span both media types (6-44 fr/s);
	// decode rates span video (34-80) and audio (60-150).
	arr, err := changepoint.GeometricRates(6, 44, 8)
	if err != nil {
		panic(err)
	}
	srv, err := changepoint.GeometricRates(34, 150, 8)
	if err != nil {
		panic(err)
	}
	app.ArrivalGrid = arr
	app.ServiceGrid = srv
	return app
}

// FormatTable5 renders Table 5.
func FormatTable5(rows []Table5Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 5: DPM and DVS\n")
	fmt.Fprintf(&b, "%-10s %12s %8s %8s %12s\n", "Algorithm", "Energy (kJ)", "Factor", "Sleeps", "Fr.Delay (s)")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %12.3f %8.2f %8d %12.3f\n",
			r.Algorithm, r.EnergyKJ, r.Factor, r.Sleeps, r.FrameDelay)
	}
	return b.String()
}
