package smartbadge

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// obsRun simulates one MP3 workload under the change-point policy with a
// fixed-timeout DPM (so the run exercises sleeps and wakes), attaching the
// given observability sinks.
func obsRun(t *testing.T, o *Observability) *Result {
	t.Helper()
	tr, err := MP3Trace(1, "AC")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Options{
		Application: AppMP3,
		Policy:      PolicyChangePoint,
		DPM:         DPMTimeout,
		Trace:       tr,
		Obs:         o,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestObservabilityEnergyTotalsMatch is the acceptance check for the event
// trace: the per-component deltas carried by the "energy" events must sum,
// over the whole run, to exactly the energy breakdown the simulator reports.
func TestObservabilityEnergyTotalsMatch(t *testing.T) {
	var buf bytes.Buffer
	o := NewObservability(NewMetricsRegistry(), NewEventTracer(&buf))
	res := obsRun(t, o)
	if err := o.Tracer().Flush(); err != nil {
		t.Fatal(err)
	}

	sums := map[string]float64{}
	var nEnergy, nTotal int
	sc := bufio.NewScanner(&buf)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		nTotal++
		var e TraceEvent
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("bad JSONL line %q: %v", sc.Text(), err)
		}
		if e.Kind != "energy" {
			continue
		}
		nEnergy++
		for comp, dj := range e.Energy {
			sums[comp] += dj
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if nEnergy == 0 {
		t.Fatalf("no energy events among %d trace lines", nTotal)
	}

	if len(sums) != len(res.EnergyByComponent) {
		t.Fatalf("trace components %v vs result %v", sums, res.EnergyByComponent)
	}
	total := 0.0
	for comp, want := range res.EnergyByComponent {
		got := sums[comp]
		if math.Abs(got-want) > 1e-6*math.Max(1, math.Abs(want)) {
			t.Errorf("component %s: trace sum %.9f J, result %.9f J", comp, got, want)
		}
		total += got
	}
	if math.Abs(total-res.EnergyJ) > 1e-6*res.EnergyJ {
		t.Errorf("trace total %.9f J, result %.9f J", total, res.EnergyJ)
	}
}

// TestObservabilityMetricsMatchResult cross-checks the registry snapshot
// against the simulator's own report.
func TestObservabilityMetricsMatchResult(t *testing.T) {
	reg := NewMetricsRegistry()
	res := obsRun(t, NewObservability(reg, nil))
	snap := reg.Snapshot()

	if got := snap.Counters["sim.frames_decoded"]; got != float64(res.FramesDecoded) {
		t.Errorf("frames_decoded counter = %v, result %d", got, res.FramesDecoded)
	}
	if got := snap.Counters["sim.sleeps"]; got != float64(res.Sleeps) {
		t.Errorf("sleeps counter = %v, result %d", got, res.Sleeps)
	}
	if res.Sleeps == 0 {
		t.Error("expected the timeout DPM to sleep at least once")
	}
	if got := snap.Counters["sim.reconfigurations"]; got != float64(res.Reconfigurations) {
		t.Errorf("reconfigurations counter = %v, result %d", got, res.Reconfigurations)
	}
	if got := snap.Gauges["sim.energy_total_j"]; got != res.EnergyJ {
		t.Errorf("energy gauge = %v, result %v", got, res.EnergyJ)
	}
	// The change-point detectors and the DPM wrapper feed the same registry.
	if snap.Counters["dpm.decisions"] == 0 {
		t.Error("dpm.decisions counter never incremented")
	}
	if _, ok := snap.Histograms["sim.frame_delay_s"]; !ok {
		t.Error("frame delay histogram missing from snapshot")
	}
	hs, ok := snap.Histograms["dpm.idle_period_s"]
	if !ok || hs.Count == 0 {
		t.Error("idle period histogram missing or empty")
	}
	// Two clips at different rates: the arrival detector must have fired.
	if snap.Counters["changepoint.arrival.detections"]+
		snap.Counters["changepoint.arrival.refinements"] == 0 {
		t.Error("arrival detector never reported a detection")
	}
}

// TestObservabilityDoesNotPerturbResults is the bit-identity guarantee: a run
// with full observability attached must produce exactly the same Result as an
// uninstrumented run.
func TestObservabilityDoesNotPerturbResults(t *testing.T) {
	var buf bytes.Buffer
	plain := obsRun(t, nil)
	observed := obsRun(t, NewObservability(NewMetricsRegistry(), NewEventTracer(&buf)))
	if !reflect.DeepEqual(plain, observed) {
		t.Errorf("observability perturbed the result:\nplain:    %+v\nobserved: %+v", plain, observed)
	}
}

// TestObservabilityTraceShape spot-checks the event stream: frames are
// 1-based, sleep events name their target state, and time never goes
// backwards.
func TestObservabilityTraceShape(t *testing.T) {
	var buf bytes.Buffer
	o := NewObservability(nil, NewEventTracer(&buf))
	obsRun(t, o)
	if err := o.Tracer().Flush(); err != nil {
		t.Fatal(err)
	}
	kinds := map[string]int{}
	lastT := math.Inf(-1)
	sc := bufio.NewScanner(&buf)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var e TraceEvent
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatal(err)
		}
		kinds[e.Kind]++
		if e.T < lastT {
			t.Fatalf("time went backwards: %v after %v (%s)", e.T, lastT, e.Kind)
		}
		lastT = e.T
		switch e.Kind {
		case "arrival", "decode_start", "decode_done":
			if e.Frame < 1 {
				t.Fatalf("%s event without a 1-based frame: %s", e.Kind, sc.Text())
			}
		case "sleep":
			if !strings.Contains(e.Target, "standby") {
				t.Fatalf("sleep event without target state: %s", sc.Text())
			}
		}
	}
	for _, kind := range []string{"arrival", "decode_start", "decode_done",
		"op_change", "op_select", "idle_enter", "dpm_decide", "sleep", "wake",
		"wake_done", "detect", "energy", "run_end"} {
		if kinds[kind] == 0 {
			t.Errorf("no %q events in trace (have %v)", kind, kinds)
		}
	}
	if kinds["run_end"] != 1 {
		t.Errorf("run_end events = %d, want exactly 1", kinds["run_end"])
	}
}

// TestConcurrentRunsShareOneRegistry runs four badges at once into one
// registry, the way a fleet's shards would sum their telemetry: no update
// may be lost. Gauges are last-write-wins and are not checked.
func TestConcurrentRunsShareOneRegistry(t *testing.T) {
	reg := NewMetricsRegistry()
	o := NewObservability(reg, nil)
	const runs = 4
	decoded := make([]int, runs)
	errs := make([]error, runs)
	var wg sync.WaitGroup
	for i := range runs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr, err := MP3Trace(uint64(i+1), "AB")
			if err != nil {
				errs[i] = err
				return
			}
			res, err := Run(Options{
				Application: AppMP3,
				Policy:      PolicyChangePoint,
				DPM:         DPMRenewal,
				Trace:       tr,
				Obs:         o,
			})
			if err != nil {
				errs[i] = err
				return
			}
			decoded[i] = res.FramesDecoded
		}()
	}
	wg.Wait()
	want := 0
	for i := range runs {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		want += decoded[i]
	}
	snap := reg.Snapshot()
	if got := snap.Counters["sim.frames_decoded"]; got != float64(want) {
		t.Errorf("sim.frames_decoded = %v, want the runs' total %d", got, want)
	}
	if got := snap.Histograms["sim.frame_delay_s"].Count; got != int64(want) {
		t.Errorf("sim.frame_delay_s holds %d observations, want the runs' total %d", got, want)
	}
}
