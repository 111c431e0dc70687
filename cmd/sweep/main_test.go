package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
	"testing"

	"smartbadge/internal/parallel"
)

func TestRunPareto(t *testing.T) {
	var buf bytes.Buffer
	if err := run(context.Background(), &buf, sweepConfig{what: "pareto", seed: 1, thrCache: "off"}); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if !strings.HasPrefix(lines[0], "policy,cpu_power_w") {
		t.Errorf("header = %q", lines[0])
	}
	if len(lines) != 12 {
		t.Errorf("rows = %d, want 11 points + header", len(lines))
	}
}

func TestRunWakeProb(t *testing.T) {
	var buf bytes.Buffer
	if err := run(context.Background(), &buf, sweepConfig{what: "wakeprob", seed: 1, probs: "1,0.1", thrCache: "off"}); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Errorf("rows = %d, want 2 points + header", len(lines))
	}
}

func TestRunErrors(t *testing.T) {
	if err := run(context.Background(), io.Discard, sweepConfig{what: "bogus", seed: 1, thrCache: "off"}); err == nil {
		t.Error("unknown sweep accepted")
	}
	if err := run(context.Background(), io.Discard, sweepConfig{what: "wakeprob", seed: 1, probs: "x", thrCache: "off"}); err == nil {
		t.Error("bad probs accepted")
	}
	if err := run(context.Background(), io.Discard, sweepConfig{what: "wakeprob", seed: 1, probs: "0", thrCache: "off"}); err == nil {
		t.Error("zero probability accepted")
	}
}

// TestRunWakeProbWorkerCountInvariant checks the -j flag end to end: the CSV
// is byte-identical whether the sweep runs serially or fanned out.
func TestRunWakeProbWorkerCountInvariant(t *testing.T) {
	var serial, fanned bytes.Buffer
	if err := run(context.Background(), &serial, sweepConfig{what: "wakeprob", seed: 2, probs: "1,0.1", workers: 1, thrCache: "off"}); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), &fanned, sweepConfig{what: "wakeprob", seed: 2, probs: "1,0.1", workers: 4, thrCache: "off"}); err != nil {
		t.Fatal(err)
	}
	if serial.String() != fanned.String() {
		t.Error("-j 1 and -j 4 outputs differ")
	}
}

// TestRunFleet checks the fleet sweep end to end: per-badge CSV rows, the
// aggregate comment block, and -j invariance of the entire stdout stream —
// including with a shared on-disk threshold cache.
func TestRunFleet(t *testing.T) {
	cacheDir := t.TempDir()
	var serial, fanned bytes.Buffer
	if err := run(context.Background(), &serial, sweepConfig{what: "fleet", seed: 5, workers: 1, fleetN: 4, thrCache: cacheDir}); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), &fanned, sweepConfig{what: "fleet", seed: 5, workers: 4, fleetN: 4, thrCache: cacheDir}); err != nil {
		t.Fatal(err)
	}
	if serial.String() != fanned.String() {
		t.Errorf("-j 1 and -j 4 fleet outputs differ:\n%s\nvs\n%s", serial.String(), fanned.String())
	}
	lines := strings.Split(strings.TrimSpace(serial.String()), "\n")
	if !strings.HasPrefix(lines[0], "badge,app,policy,dpm,energy_j") {
		t.Errorf("header = %q", lines[0])
	}
	var rows, comments int
	for _, l := range lines[1:] {
		if strings.HasPrefix(l, "#") {
			comments++
		} else {
			rows++
		}
	}
	if rows != 4 {
		t.Errorf("badge rows = %d, want 4", rows)
	}
	if comments != 3 {
		t.Errorf("aggregate comment lines = %d, want 3", comments)
	}
	if err := run(context.Background(), io.Discard, sweepConfig{what: "fleet", seed: 5, workers: 1, thrCache: "off"}); err == nil {
		t.Error("zero-badge fleet accepted")
	}
}

// TestRunFleetReportsWorkersUsed: the throughput line on stderr names the
// workers the batch ran with — -j resolved (0 selects GOMAXPROCS), then
// clamped to the badges — not the -j value asked for. The test swaps
// os.Stderr, so it is not parallel.
func TestRunFleetReportsWorkersUsed(t *testing.T) {
	cacheDir := t.TempDir()
	for _, c := range []struct{ j, badges, want int }{
		{0, 1, 1},
		{0, 2, min(parallel.Workers(0), 2)},
		{8, 3, 3},
		{2, 3, 2},
	} {
		f, err := os.CreateTemp(t.TempDir(), "stderr")
		if err != nil {
			t.Fatal(err)
		}
		stderr := os.Stderr
		os.Stderr = f
		err = run(context.Background(), io.Discard, sweepConfig{what: "fleet", seed: 5, workers: c.j, fleetN: c.badges, thrCache: cacheDir})
		os.Stderr = stderr
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		out, err := os.ReadFile(f.Name())
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf(", %d workers)", c.want); !strings.Contains(string(out), want) {
			t.Errorf("-j %d, %d badges: stderr %q lacks %q", c.j, c.badges, out, want)
		}
	}
}

// TestRunObservabilityArtifacts checks the -metrics-out/-trace-out wiring:
// per-point events, the point counter and the phase timer all land on disk.
func TestRunObservabilityArtifacts(t *testing.T) {
	dir := t.TempDir()
	metrics := dir + "/sweep.metrics.json"
	trace := dir + "/sweep.trace.jsonl"
	if err := run(context.Background(), io.Discard, sweepConfig{what: "wakeprob", seed: 1, probs: "1,0.1", thrCache: "off", metricsOut: metrics, traceOut: trace}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Counters map[string]int64 `json:"counters"`
		Timers   map[string]struct {
			Count int64 `json:"count"`
		} `json:"timers"`
	}
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Counters["sweep.points"] != 2 {
		t.Errorf("point counter = %v", snap.Counters)
	}
	if snap.Timers["sweep.wakeprob"].Count != 1 {
		t.Errorf("phase timer = %v", snap.Timers)
	}
	raw, err = os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(raw), `"kind":"sweep_point"`); n != 2 {
		t.Errorf("sweep_point events = %d, want 2", n)
	}
}
