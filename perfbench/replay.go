package main

import (
	"fmt"
	"math"
	"strconv"

	"smartbadge/internal/device"
	"smartbadge/internal/dpm"
	"smartbadge/internal/experiments"
	"smartbadge/internal/fleet"
	"smartbadge/internal/sa1100"
	"smartbadge/internal/sim"
	"smartbadge/internal/stats"
	"smartbadge/internal/workload"
)

// Layer span names. They are the names the per-layer metrics and the
// ledger use.
const (
	spanBadge    = "badge"
	spanGenerate = "workload.generate"
	spanFit      = "dpm.renewal_fit"
	spanSetup    = "badge.setup"
	spanLoop     = "sim.loop"
)

// badgeLayers are the per-badge layers the ledger attributes, in call
// order.
var badgeLayers = []string{spanGenerate, spanFit, spanSetup, spanLoop}

// replayBadge recomputes badge i of cfg through the public calls fleet's
// per-badge path makes (spec and substream derivation, trace synthesis,
// renewal fit, controller build, simulator build and event loop), with one
// span per layer under a "badge" span whose parent is parent. sc plays the
// part of a shard's recycled scratch. It also returns the trace's frame
// count, for the per-frame loop cost.
func replayBadge(tr *tracer, parent int, cfg *fleet.Config, i int, sc *sim.Scratch) (fleet.BadgeResult, int, error) {
	spec := cfg.SpecFor(i)
	req := "badge/" + strconv.FormatUint(cfg.Seed, 10) + "/" + strconv.Itoa(i)
	root := tr.begin(spanBadge, spec.Policy.WireName(), req, parent)
	defer tr.end(root)
	rng := stats.NewRNG(cfg.Seed).SplitAt(uint64(i))

	id := tr.begin(spanGenerate, spec.App, req, root)
	var (
		trace *workload.Trace
		app   experiments.App
		err   error
	)
	switch spec.App {
	case "mp3":
		var clips []workload.Clip
		clips, err = workload.MP3Sequence("ACEFBD")
		if err == nil {
			trace, err = workload.Generate(rng, clips, workload.GenerateOptions{})
		}
		app = experiments.MP3App()
	case "mpeg":
		trace, err = workload.Generate(rng, workload.MPEGClips(), workload.GenerateOptions{})
		app = experiments.MPEGApp()
	case "mixed":
		trace, err = experiments.Table5Workload(rng.Uint64())
		app = experiments.MixedApp()
	default:
		err = fmt.Errorf("unknown app %q", spec.App)
	}
	tr.end(id)
	if err != nil {
		return fleet.BadgeResult{}, 0, err
	}

	var pol dpm.Policy = dpm.AlwaysOn{}
	if spec.DPM == "renewal" {
		id = tr.begin(spanFit, "", req, root)
		costs := dpm.CostsForBadge(device.SmartBadge(), device.Standby)
		pol, err = dpm.NewRenewalTimeout(trace.IdleModel(), costs, device.Standby, 0)
		tr.end(id)
		if err != nil {
			return fleet.BadgeResult{}, 0, err
		}
	}

	id = tr.begin(spanSetup, spec.Policy.WireName(), req, root)
	first := trace.Changes[0]
	ctrl, err := experiments.NewController(spec.Policy, app, first.ArrivalRate, first.DecodeRateMax)
	var s *sim.Simulator
	if err == nil {
		s, err = sim.New(sim.Config{
			Badge:      device.SmartBadge(),
			Proc:       sa1100.Default(),
			Trace:      trace,
			Controller: ctrl,
			DPM:        pol,
			Kind:       app.Kind,
			Scratch:    sc,
		})
	}
	tr.end(id)
	if err != nil {
		return fleet.BadgeResult{}, 0, err
	}

	id = tr.begin(spanLoop, spec.Policy.WireName(), req, root)
	res, err := s.Run()
	tr.end(id)
	if err != nil {
		return fleet.BadgeResult{}, 0, err
	}
	return fleet.BadgeResult{
		Spec:          spec,
		EnergyJ:       res.EnergyJ,
		MeanDelayS:    res.FrameDelay.Mean(),
		SimTimeS:      res.SimTime,
		AvgPowerW:     res.AvgPowerW,
		FramesDecoded: res.FramesDecoded,
		Sleeps:        res.Sleeps,
	}, len(trace.Frames), nil
}

// sameBadge reports whether two badge results agree bit for bit.
func sameBadge(a, b fleet.BadgeResult) bool {
	bits := math.Float64bits
	return a.Spec == b.Spec &&
		bits(a.EnergyJ) == bits(b.EnergyJ) &&
		bits(a.MeanDelayS) == bits(b.MeanDelayS) &&
		bits(a.SimTimeS) == bits(b.SimTimeS) &&
		bits(a.AvgPowerW) == bits(b.AvgPowerW) &&
		a.FramesDecoded == b.FramesDecoded &&
		a.Sleeps == b.Sleeps
}

// checkReport applies the invariants every batch report must meet: every
// badge succeeded, in index order, with finite positive energy and at least
// one decoded frame.
func checkReport(rep *fleet.Report, badges int) error {
	if len(rep.Failed) > 0 {
		return fmt.Errorf("%d badges failed; first: %v", len(rep.Failed), rep.Failed[0])
	}
	if len(rep.Badges) != badges || rep.Agg.Runs != badges {
		return fmt.Errorf("report has %d badges (agg %d), want %d", len(rep.Badges), rep.Agg.Runs, badges)
	}
	for i, b := range rep.Badges {
		if b.Index != i || !(b.EnergyJ > 0) || math.IsInf(b.EnergyJ, 0) || b.FramesDecoded <= 0 {
			return fmt.Errorf("badge %d: implausible result %+v", i, b)
		}
	}
	return nil
}
