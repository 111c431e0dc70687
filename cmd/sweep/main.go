// Command sweep emits parameter-sweep results as CSV for plotting:
//
//	sweep -what pareto        # energy/latency frontier (M/M/1, MDP, fixed)
//	sweep -what wakeprob      # performance-constrained DPM sweep
//	sweep -what resilience    # fault scenarios x policy configurations
//	sweep -what fleet -fleet 24 -j 4   # batch of heterogeneous badge sims
//
// The fleet sweep is crash-safe with -ckpt DIR: completed badges are
// journaled there (internal/ckpt) and a killed run resumed with the same
// flags skips them, producing byte-identical CSV. -ckpt-kill-after N is
// the chaos knob behind the CI crash/resume smoke: it hard-kills the
// process (exit status 3) after N journal appends.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"smartbadge/internal/ckpt"
	"smartbadge/internal/experiments"
	"smartbadge/internal/fleet"
	"smartbadge/internal/obs"
	"smartbadge/internal/parallel"
	"smartbadge/internal/prof"
	"smartbadge/internal/thrcache"
	"smartbadge/internal/units"
)

func main() {
	var (
		what = flag.String("what", "pareto", "sweep: pareto | wakeprob | resilience | fleet")
		seed = flag.Uint64("seed", 1, "workload seed")
		// faults filters the resilience sweep to one scenario ("" = all).
		faultsFlag = flag.String("faults", "", "resilience sweep: only this fault scenario (default all)")
		// Idle periods are overwhelmingly sub-second inter-frame gaps, so the
		// wake-probability constraint only binds once it drops below the
		// frequency of the long inter-clip gaps (~2e-4 of idle periods on
		// the combined workload); the default sweep crosses that point.
		probs         = flag.String("probs", "1,0.01,0.001,0.0002,0.00015,0.0001", "wake-probability constraints (wakeprob sweep)")
		workers       = flag.Int("j", 0, "worker goroutines for the sweep (0 = GOMAXPROCS); results are identical for any value")
		fleetN        = flag.Int("fleet", 24, "fleet sweep: number of badge simulations in the batch")
		thrCache      = flag.String("thr-cache", "auto", "threshold cache: auto | off | DIR (auto = per-user cache dir)")
		cpuprofile    = flag.String("cpuprofile", "", "write a CPU profile to this file")
		metricsOut    = flag.String("metrics-out", "", "write a metrics snapshot (JSON) plus a run manifest to this file")
		traceOut      = flag.String("trace-out", "", "write a structured event trace (JSONL) plus a run manifest to this file")
		ckptDir       = flag.String("ckpt", "", "fleet sweep: checkpoint directory for crash-safe resume")
		ckptKillAfter = flag.Int("ckpt-kill-after", 0, "chaos: kill the process (exit 3) after N checkpoint appends")
	)
	flag.Parse()

	err := prof.WithCPUProfile(*cpuprofile, func() error {
		return run(context.Background(), os.Stdout, sweepConfig{
			what:          *what,
			seed:          *seed,
			probs:         *probs,
			faults:        *faultsFlag,
			workers:       *workers,
			fleetN:        *fleetN,
			thrCache:      *thrCache,
			metricsOut:    *metricsOut,
			traceOut:      *traceOut,
			ckptDir:       *ckptDir,
			ckptKillAfter: *ckptKillAfter,
		})
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		os.Exit(1)
	}
}

// sweepConfig is the parsed flag set handed to run.
type sweepConfig struct {
	what          string
	seed          uint64
	probs         string
	faults        string
	workers       int
	fleetN        int
	thrCache      string
	metricsOut    string
	traceOut      string
	ckptDir       string
	ckptKillAfter int
}

func run(ctx context.Context, w io.Writer, sc sweepConfig) error {
	what, seed, workers := sc.what, sc.seed, sc.workers
	probsFlag, faultsFlag, fleetN := sc.probs, sc.faults, sc.fleetN
	cache, err := thrcache.Open(sc.thrCache)
	if err != nil {
		return err
	}
	experiments.SetThresholdCache(cache)
	art, err := obs.OpenArtifacts(sc.metricsOut, sc.traceOut, obs.NewManifest("sweep", seed, workers, map[string]any{
		"what":   what,
		"probs":  probsFlag,
		"faults": faultsFlag,
	}))
	if err != nil {
		return err
	}
	o := art.Observability()
	cPoints := o.Registry().Counter("sweep.points")
	tr := o.Tracer()

	switch strings.ToLower(what) {
	case "pareto":
		stop := o.Registry().Timer("sweep.pareto").Start()
		points, err := experiments.ParetoFrontier(ctx, seed, workers)
		stop()
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "policy,cpu_power_w,mean_delay_ms,switches")
		for _, p := range points {
			fmt.Fprintf(w, "%s,%.6f,%.3f,%d\n", p.Label, p.CPUPowerW, p.MeanDelayMS, p.Switches)
			cPoints.Inc()
			if tr != nil {
				tr.Emit(obs.Event{
					Kind:   "sweep_point",
					Comp:   p.Label,
					Value:  p.CPUPowerW,
					DelayS: units.MSToS(p.MeanDelayMS),
					Detail: fmt.Sprintf("switches=%d", p.Switches),
				})
			}
		}
		return art.Close()
	case "wakeprob":
		probs, err := parseProbs(probsFlag)
		if err != nil {
			return err
		}
		stop := o.Registry().Timer("sweep.wakeprob").Start()
		points, err := experiments.WakeProbSweep(ctx, seed, probs, workers)
		stop()
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "max_wake_prob,timeout_s,energy_kj,sleeps,measured_wake_prob,mean_delay_s")
		for _, p := range points {
			fmt.Fprintf(w, "%g,%.4f,%.4f,%d,%.5f,%.4f\n",
				p.MaxWakeProb, p.TimeoutS, p.EnergyKJ, p.Sleeps, p.MeasuredWakeProb, p.MeanDelayS)
			cPoints.Inc()
			if tr != nil {
				tr.Emit(obs.Event{
					Kind:    "sweep_point",
					Timeout: p.TimeoutS,
					Value:   p.EnergyKJ * 1000,
					DelayS:  p.MeanDelayS,
					Detail:  fmt.Sprintf("max_wake_prob=%g measured=%.5f sleeps=%d", p.MaxWakeProb, p.MeasuredWakeProb, p.Sleeps),
				})
			}
		}
		return art.Close()
	case "resilience":
		stop := o.Registry().Timer("sweep.resilience").Start()
		rows, err := experiments.ResilienceTable(ctx, seed, workers)
		stop()
		if err != nil {
			return err
		}
		filter := strings.ToLower(strings.TrimSpace(faultsFlag))
		fmt.Fprintln(w, "scenario,config,energy_kj,rel_energy,miss_rate,drops,peak_queue,trips,safe_mode_s,recovered,dpm_vetoes")
		for _, r := range rows {
			if filter != "" && filter != "all" && r.Scenario != filter {
				continue
			}
			fmt.Fprintf(w, "%s,%s,%.4f,%.4f,%.5f,%d,%d,%d,%.2f,%t,%d\n",
				r.Scenario, r.Config, r.EnergyKJ, r.RelEnergy, r.MissRate,
				r.Drops, r.PeakQueue, r.Trips, r.SafeModeS, r.Recovered, r.Vetoes)
			cPoints.Inc()
			if tr != nil {
				tr.Emit(obs.Event{
					Kind:  "sweep_point",
					Comp:  r.Scenario + "/" + r.Config,
					Value: r.EnergyKJ * 1000,
					Detail: fmt.Sprintf("miss_rate=%.5f drops=%d trips=%d recovered=%t",
						r.MissRate, r.Drops, r.Trips, r.Recovered),
				})
			}
		}
		return art.Close()
	case "fleet":
		if fleetN <= 0 {
			return fmt.Errorf("fleet sweep needs -fleet >= 1, got %d", fleetN)
		}
		fcfg := fleetConfigOf(sc)
		if sc.ckptDir != "" {
			hash, err := fcfg.Hash()
			if err != nil {
				return err
			}
			store, err := ckpt.Open(sc.ckptDir, hash, fleetN, ckpt.Options{KillAfterAppends: sc.ckptKillAfter})
			if err != nil {
				return err
			}
			defer store.Close()
			if st := store.Stats(); st.Restored > 0 || st.Dropped > 0 {
				// Resume telemetry is stderr-only, like throughput: stdout
				// must stay byte-identical to an uninterrupted run.
				fmt.Fprintf(os.Stderr, "fleet: resuming from %s (%d restored, %d dropped, healed=%t)\n",
					sc.ckptDir, st.Restored, st.Dropped, st.Healed)
			}
			fcfg.Journal = store
		}
		stop := o.Registry().Timer("sweep.fleet").Start()
		started := time.Now()
		rep, err := fleet.RunCtx(ctx, fcfg)
		elapsed := time.Since(started)
		stop()
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "badge,app,policy,dpm,energy_j,mean_delay_s,sim_time_s,avg_power_w,frames,sleeps")
		for _, b := range rep.Badges {
			fmt.Fprintf(w, "%d,%s,%s,%s,%.6f,%.6f,%.3f,%.6f,%d,%d\n",
				b.Index, b.App, b.Policy, b.DPM, b.EnergyJ, b.MeanDelayS, b.SimTimeS, b.AvgPowerW,
				b.FramesDecoded, b.Sleeps)
			cPoints.Inc()
			if tr != nil {
				tr.Emit(obs.Event{
					Kind:   "sweep_point",
					Comp:   fmt.Sprintf("badge%d/%s/%s/%s", b.Index, b.App, b.Policy, b.DPM),
					Value:  b.EnergyJ,
					DelayS: b.MeanDelayS,
					Detail: fmt.Sprintf("frames=%d sleeps=%d", b.FramesDecoded, b.Sleeps),
				})
			}
		}
		// Failures and aggregates ride along as CSV comments: still
		// deterministic, still on stdout, ignorable by plotting scripts.
		for _, f := range rep.Failed {
			fmt.Fprintf(w, "# failed badge=%d app=%s policy=%s dpm=%s error=%s\n",
				f.Index, f.Spec.App, f.Spec.Policy, f.Spec.DPM, f.Cause)
		}
		a := rep.Agg
		fmt.Fprintf(w, "# runs=%d total_energy_j=%.6f total_sim_s=%.3f\n", a.Runs, a.TotalEnergyJ, a.TotalSimS)
		fmt.Fprintf(w, "# energy_j p50=%.6f p90=%.6f p99=%.6f\n", a.EnergyP50J, a.EnergyP90J, a.EnergyP99J)
		fmt.Fprintf(w, "# mean_delay_s p50=%.6f p90=%.6f p99=%.6f\n", a.DelayP50S, a.DelayP90S, a.DelayP99S)
		// Throughput is timing, not result: it goes to stderr so stdout stays
		// bit-identical across runs and worker counts. The worker count is
		// the one the batch ran with: -j resolved, then clamped to the
		// badges as fleet.RunCtx clamps it.
		if s := elapsed.Seconds(); s > 0 {
			fmt.Fprintf(os.Stderr, "fleet: %d runs in %.2fs (%.2f runs/sec, %d workers)\n",
				a.Runs, s, float64(a.Runs)/s, min(parallel.Workers(workers), fleetN))
		}
		return art.Close()
	default:
		return fmt.Errorf("unknown sweep %q (want pareto|wakeprob|resilience|fleet)", what)
	}
}

// fleetConfigOf lowers the sweep flags to the batch config — the one
// place it happens, so the checkpoint config hash always matches the run.
func fleetConfigOf(sc sweepConfig) fleet.Config {
	return fleet.Config{Badges: sc.fleetN, Seed: sc.seed, Workers: sc.workers}
}

func parseProbs(s string) ([]float64, error) {
	parts := strings.Split(s, ",")
	out := make([]float64, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("bad probability %q: %w", p, err)
		}
		out = append(out, v)
	}
	return out, nil
}
