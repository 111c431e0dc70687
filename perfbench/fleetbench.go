package main

import (
	"context"
	"fmt"
	"runtime"
	"strconv"
	"time"

	"smartbadge/internal/experiments"
	"smartbadge/internal/fleet"
	"smartbadge/internal/sim"
	"smartbadge/internal/stats"
)

const (
	// batchBadges is the size of one fleet op.
	batchBadges = 48
	// fleetWorkers matches the two cores the benchmark is sized for.
	fleetWorkers = 2
	// setupReps is how many cold set-ups a run times; it reports their
	// median.
	setupReps = 3
)

// Seed streams: every input of a run is drawn from its own substream of
// the workload seed, so adding inputs of one kind never shifts another.
const (
	streamSetup uint64 = iota + 1
	streamBatch
	streamFresh
	streamReplayBody
	streamFreshSched
	streamReplaySched
	streamReplayPick
	streamClient
)

func subSeed(seed, stream uint64, i int) uint64 {
	return stats.NewRNG(seed).SplitAt(stream).SplitAt(uint64(i)).Uint64()
}

// fleetShape is the badge mix of a fleet workload; empty axes select
// fleet's default 12-way mix.
type fleetShape struct {
	apps []string
	pols []experiments.PolicyKind
	dpms []string
}

var (
	mixShape  = fleetShape{}
	leanShape = fleetShape{
		apps: []string{"mp3"},
		pols: []experiments.PolicyKind{experiments.ExpAvg},
		dpms: []string{"none"},
	}
)

func (f fleetShape) config(seed uint64, badges, workers int) fleet.Config {
	return fleet.Config{Badges: badges, Seed: seed, Workers: workers, Apps: f.apps, Policies: f.pols, DPMs: f.dpms}
}

// fleetSetup times setupReps cold starts: a fresh memory-only threshold
// cache, then the first checked 48-badge batch, which pays for any
// threshold characterisation the mix needs.
func fleetSetup(ctx context.Context, f fleetShape, seed uint64) ([]float64, error) {
	cfg := f.config(subSeed(seed, streamSetup, 0), batchBadges, fleetWorkers)
	var out []float64
	for r := 0; r < setupReps; r++ {
		experiments.SetThresholdCache(nil)
		start := time.Now()
		rep, err := fleet.RunCtx(ctx, cfg)
		if err == nil {
			err = checkReport(rep, batchBadges)
		}
		if err != nil {
			return nil, fmt.Errorf("setup batch: %w", err)
		}
		out = append(out, time.Since(start).Seconds())
	}
	return out, nil
}

func runFleet(ctx context.Context, f fleetShape, o options) (*result, error) {
	setup, err := fleetSetup(ctx, f, o.seed)
	if err != nil {
		return nil, err
	}
	r := newResult()
	r.values["setup_s"] = percentile(setup, 0.5)
	r.note("setup_s samples: %.4g s", setup)
	if o.traced {
		err = tracedFleet(ctx, f, o, r)
	} else {
		err = untracedFleet(ctx, f, o, r)
	}
	if err != nil {
		return nil, err
	}
	st := experiments.ThresholdCache().Stats()
	lookups := st.MemHits + st.DiskHits + st.Misses + st.Shared
	r.values["thrcache.misses"] = float64(st.Misses)
	r.values["thrcache.hit_ratio"] = 0
	if lookups > 0 {
		r.values["thrcache.hit_ratio"] = float64(lookups-st.Misses) / float64(lookups)
	}
	zeroServeLayers(r)
	return r, nil
}

// spotCheck is one badge of a measured batch, re-derived after the window.
type spotCheck struct {
	cfg  fleet.Config
	i    int
	want fleet.BadgeResult
}

// untracedFleet measures the end-to-end metrics: back-to-back 48-badge
// batches at Workers=2, each on a fresh seed, until the window closes.
func untracedFleet(ctx context.Context, f fleetShape, o options, r *result) error {
	var (
		batchMS []float64
		spots   []spotCheck
		ms0     runtime.MemStats
		ms1     runtime.MemStats
	)
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	start := time.Now()
	for b := 0; time.Since(start) < o.window; b++ {
		cfg := f.config(subSeed(o.seed, streamBatch, b), batchBadges, fleetWorkers)
		t0 := time.Now()
		rep, err := fleet.RunCtx(ctx, cfg)
		batchMS = append(batchMS, ms(time.Since(t0)))
		r.attempted += batchBadges
		if err == nil {
			err = checkReport(rep, batchBadges)
		}
		if err != nil {
			r.failed += batchBadges
			r.problem("batch %d: %v", b, err)
			continue
		}
		i := b % batchBadges
		spots = append(spots, spotCheck{cfg, i, rep.Badges[i]})
	}
	wall := time.Since(start)
	cpu := cpuTime() - cpu0
	runtime.ReadMemStats(&ms1)

	badges := float64(r.attempted)
	r.values["latency_ms_p50"] = percentile(batchMS, 0.5)
	r.values["cpu_ms_per_badge"] = ms(cpu) / badges
	r.values["alloc_mb_per_badge"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1e6 / badges
	r.note("badges_per_s: %.4g 1/s (%d badges in %.3g s at Workers=%d)", badges/wall.Seconds(), r.attempted, wall.Seconds(), fleetWorkers)
	r.note("%s", quantiles("batch_ms", "ms", batchMS, 0.9))

	// Correctness gate: one badge of every batch, recomputed through the
	// public per-badge calls, must equal the batch's result bit for bit.
	sc := sim.NewScratch()
	for _, s := range spots {
		got, _, err := replayBadge(nil, 0, &s.cfg, s.i, sc)
		if err != nil || !sameBadge(got, s.want) {
			r.failed++
			r.problem("batch seed %d badge %d: replay %+v (err %v) != fleet %+v", s.cfg.Seed, s.i, got, err, s.want)
		}
	}
	r.note("correctness: %d batch reports checked, %d badges replayed bit for bit", len(batchMS), len(spots))
	return nil
}

// tracedFleet measures the per-layer metrics and closes the ledger. Each
// batch runs three times at Workers=1: an untraced fleet.RunCtx (the
// end-to-end reference U), a traced replay of every badge through the
// public per-badge calls, and a second untraced fleet.RunCtx T. Fleet's
// own overhead is T minus the replayed badge times; the ledger closes when
// the named layers' self times plus that overhead explain U.
func tracedFleet(ctx context.Context, f fleetShape, o options, r *result) error {
	tr := newTracer(true)
	var (
		sumU, sumT, sumBadges, sumReplay time.Duration
		imbalance                        []float64
		frames                           int
	)
	start := time.Now()
	for b := 0; b == 0 || time.Since(start) < o.window; b++ {
		cfg := f.config(subSeed(o.seed, streamBatch, b), batchBadges, 1)
		// Each of the three passes starts from a collected heap, so none
		// pays for garbage the previous one left.
		runtime.GC()
		t0 := time.Now()
		repU, err := fleet.RunCtx(ctx, cfg)
		u := time.Since(t0)
		if err == nil {
			err = checkReport(repU, batchBadges)
		}
		r.attempted += batchBadges
		if err != nil {
			r.failed += batchBadges
			r.problem("batch %d: %v", b, err)
			continue
		}

		runtime.GC()
		root := tr.begin("replay", "", "batch/"+strconv.Itoa(b), 0)
		sc := sim.NewScratch()
		for i := 0; i < batchBadges; i++ {
			got, n, err := replayBadge(tr, root, &cfg, i, sc)
			frames += n
			if err != nil || !sameBadge(got, repU.Badges[i]) {
				r.failed++
				r.problem("batch %d badge %d: replay %+v (err %v) != fleet %+v", b, i, got, err, repU.Badges[i])
			}
		}
		tr.end(root)

		runtime.GC()
		t0 = time.Now()
		repT, err := fleet.RunCtx(ctx, cfg)
		t := time.Since(t0)
		if err != nil || !sameReport(repT, repU) {
			r.failed++
			r.problem("batch %d: second run differs from the first (err %v)", b, err)
		}

		spans := tr.snapshot()
		var durs []float64
		var badgeTotal time.Duration
		for _, s := range spans {
			if s.Parent == root && s.Name == spanBadge {
				durs = append(durs, float64(s.dur()))
				badgeTotal += s.dur()
			}
		}
		imbalance = append(imbalance, shardImbalance(durs, fleetWorkers))
		sumU += u
		sumT += t
		sumBadges += badgeTotal
		sumReplay += spans[root-1].dur()
	}
	if sumU == 0 {
		return fmt.Errorf("no batch completed")
	}

	spans := tr.snapshot()
	self := selfTimes(spans)
	badges := float64(r.attempted)
	perBadgeMS := func(name, tag string) float64 { return ms(sumLayer(spans, self, name, tag).self) / badges }
	loop := sumLayer(spans, self, spanLoop, "")
	gen := sumLayer(spans, self, spanGenerate, "")
	r.values["workload.generate.ms"] = ms(gen.self) / badges
	r.values["workload.generate.alloc_mb"] = float64(gen.alloc) / 1e6 / badges
	r.values["dpm.renewal_fit.ms"] = perBadgeMS(spanFit, "")
	r.values["badge.setup.us"] = perBadgeMS(spanSetup, "") * 1e3
	r.values["sim.loop.ms"] = ms(loop.self) / badges
	r.values["sim.loop.ns_per_frame"] = float64(loop.self) / float64(max(frames, 1))
	r.values["sim.loop.alloc_kb"] = float64(loop.alloc) / 1e3 / badges
	r.values["sim.loop.changepoint.ms"] = perBadgeMS(spanLoop, experiments.ChangePoint.WireName())
	r.values["sim.loop.expavg.ms"] = perBadgeMS(spanLoop, experiments.ExpAvg.WireName())
	batches := float64(len(imbalance))
	overhead := sumT - sumBadges
	r.values["fleet.overhead.ms"] = ms(overhead) / batches
	r.values["fleet.shard_imbalance"] = mean(imbalance)

	var named time.Duration
	for _, l := range badgeLayers {
		named += sumLayer(spans, self, l, "").self
	}
	unattr := unattributedPct(float64(sumU), float64(named+overhead))
	r.values["ledger.unattributed_pct"] = unattr
	r.values["trace.overhead_pct"] = 100 * (float64(sumReplay) - float64(sumU)) / float64(sumU)
	r.note("ledger (per batch, Workers=1): untraced wall %.4g ms = layers %.4g ms + fleet overhead %.4g ms + unattributed %.3g%%",
		ms(sumU)/batches, ms(named)/batches, ms(overhead)/batches, unattr)
	if !ledgerCloses(unattr) {
		r.problem("ledger does not close: %.3g%% of the untraced wall time is unattributed (tolerance ±%d%%)", unattr, ledgerTolerancePct)
	}
	r.note("correctness: %d badges replayed bit for bit in %d batches", r.attempted, len(imbalance))
	if err := writeJSONL(o.traceOut, spans); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	r.note("spans: %d written to %s", len(spans), o.traceOut)
	return nil
}

// sameReport reports whether two batch reports agree bit for bit badge by
// badge.
func sameReport(a, b *fleet.Report) bool {
	if len(a.Badges) != len(b.Badges) || len(a.Failed) != len(b.Failed) {
		return false
	}
	for i := range a.Badges {
		if !sameBadge(a.Badges[i], b.Badges[i]) {
			return false
		}
	}
	return true
}

// zeroServeLayers reports the serving layers, which a fleet workload never
// reaches, as zero.
func zeroServeLayers(r *result) {
	for _, name := range []string{
		"client.request.ms", "server.handler.ms", "http.transport.ms",
		"server.engine.ms", "server.marshal.us", "server.admission.ms",
		"server.idem.replay", "server.idem.miss", "server.engine.fleet_runs",
		"server.shed", "client.retries", "loadgen.lag_ms_p90",
	} {
		r.values[name] = 0
	}
}
