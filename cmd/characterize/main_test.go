package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"strings"
	"testing"
)

func TestParseRatesExplicit(t *testing.T) {
	rates, err := parseRates("40, 10,20", 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{10, 20, 40}
	if len(rates) != 3 {
		t.Fatalf("len = %d", len(rates))
	}
	for i := range want {
		if rates[i] != want[i] {
			t.Errorf("rates[%d] = %v, want %v (sorted)", i, rates[i], want[i])
		}
	}
}

func TestParseRatesGrid(t *testing.T) {
	rates, err := parseRates("", 10, 80, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(rates) != 4 || rates[0] != 10 || rates[3] != 80 {
		t.Errorf("grid = %v", rates)
	}
}

func TestParseRatesErrors(t *testing.T) {
	if _, err := parseRates("10,abc", 0, 0, 0); err == nil {
		t.Error("bad number accepted")
	}
	if _, err := parseRates("", 80, 10, 4); err == nil {
		t.Error("inverted grid accepted")
	}
}

func TestRunCharacterise(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, "10,60", 0, 0, 0, 0.99, 300, 50, 1, 0, true, "off", "", ""); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"candidate rates", "ln Pmax thresh", "histogram", "#"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
	if err := run(io.Discard, "x,y", 0, 0, 0, 0.99, 300, 50, 1, 0, false, "off", "", ""); err == nil {
		t.Error("bad rates accepted")
	}
	if err := run(io.Discard, "10,60", 0, 0, 0, 2.0, 300, 50, 1, 0, false, "off", "", ""); err == nil {
		t.Error("bad confidence accepted")
	}
	if err := run(io.Discard, "10,60", 0, 0, 0, 0.99, 300, 50, 1, -3, false, "off", "", ""); err == nil {
		t.Error("negative worker count accepted")
	}
}

// TestRunRejectsNonFiniteInputs: an infinite or NaN rate used to panic a
// characterisation worker (and so the process), and a NaN confidence
// returned the histogram's lower edge as every threshold.
func TestRunRejectsNonFiniteInputs(t *testing.T) {
	for _, c := range []struct {
		rates      string
		confidence float64
	}{{"1,inf", 0.995}, {"10,NaN,20", 0.995}, {"10,20", math.NaN()}} {
		if err := run(io.Discard, c.rates, 0, 0, 0, c.confidence, 100, 100, 1, 0, false, "off", "", ""); err == nil {
			t.Errorf("rates %s, confidence %v accepted", c.rates, c.confidence)
		}
	}
}

// TestRunWorkerCountInvariant checks the -j flag end to end: the printed
// thresholds are byte-identical whether the characterisation runs serially
// or on several workers.
func TestRunWorkerCountInvariant(t *testing.T) {
	var serial, fanned bytes.Buffer
	if err := run(&serial, "10,25,60", 0, 0, 0, 0.99, 300, 50, 7, 1, true, "off", "", ""); err != nil {
		t.Fatal(err)
	}
	if err := run(&fanned, "10,25,60", 0, 0, 0, 0.99, 300, 50, 7, 4, true, "off", "", ""); err != nil {
		t.Fatal(err)
	}
	if serial.String() != fanned.String() {
		t.Error("-j 1 and -j 4 outputs differ")
	}
}

// TestRunThresholdCacheTransparent checks the -thr-cache flag end to end:
// a cold run populating a disk cache, a warm run served from it, and an
// uncached run all print byte-identical thresholds.
func TestRunThresholdCacheTransparent(t *testing.T) {
	dir := t.TempDir()
	var uncached, cold, warm bytes.Buffer
	if err := run(&uncached, "10,60", 0, 0, 0, 0.99, 300, 50, 1, 0, false, "off", "", ""); err != nil {
		t.Fatal(err)
	}
	if err := run(&cold, "10,60", 0, 0, 0, 0.99, 300, 50, 1, 0, false, dir, "", ""); err != nil {
		t.Fatal(err)
	}
	if err := run(&warm, "10,60", 0, 0, 0, 0.99, 300, 50, 1, 0, false, dir, "", ""); err != nil {
		t.Fatal(err)
	}
	if cold.String() != uncached.String() {
		t.Error("cold cached run differs from uncached run")
	}
	if warm.String() != uncached.String() {
		t.Error("warm cached run differs from uncached run")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("cache dir holds %d entries, want 1", len(entries))
	}
}

// TestRunObservabilityArtifacts checks the -metrics-out/-trace-out wiring:
// the characterisation timer, per-ratio threshold events and the manifest.
func TestRunObservabilityArtifacts(t *testing.T) {
	dir := t.TempDir()
	metrics := dir + "/char.metrics.json"
	trace := dir + "/char.trace.jsonl"
	if err := run(io.Discard, "10,60", 0, 0, 0, 0.99, 300, 50, 1, 0, false, "off", metrics, trace); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Counters["changepoint.characterise.ratios"] != 2 {
		t.Errorf("ratio counter = %v", snap.Counters)
	}
	raw, err = os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(raw), `"kind":"threshold"`); n != 2 {
		t.Errorf("threshold events = %d, want 2", n)
	}
}
