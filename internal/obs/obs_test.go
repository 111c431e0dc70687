package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func TestNilFastPathIsSafe(t *testing.T) {
	var r *Registry
	var o *Obs
	if r.Counter("x") != nil || r.Gauge("x") != nil ||
		r.Histogram("x", []float64{1}) != nil || r.Timer("x") != nil {
		t.Fatal("nil registry must hand out nil instruments")
	}
	if o.Registry() != nil || o.Tracer() != nil {
		t.Fatal("nil Obs accessors must return nil")
	}
	// None of these may panic.
	var c *Counter
	c.Add(1)
	c.Inc()
	var g *Gauge
	g.Set(3)
	var h *Histogram
	h.Observe(1)
	var pt *PhaseTimer
	pt.Start()()
	var tr *Tracer
	tr.Emit(Event{Kind: "x"})
	tr.SetClock(func() float64 { return 1 })
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || tr.Events() != 0 {
		t.Fatal("nil instruments must read as zero")
	}
	if s := r.Snapshot(); s.Counters != nil || s.Gauges != nil {
		t.Fatal("nil registry snapshot must be empty")
	}
}

// TestSyncRegistryNilSafe: the locked registry keeps the nil contract, so
// every handle and method on a nil registry is a usable no-op that never
// reaches the lock, and a nil registry renders as an empty JSON object.
func TestSyncRegistryNilSafe(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	g := r.Gauge("x")
	h := r.Histogram("x", []float64{1})
	tm := r.Timer("x")
	c.Inc()
	c.Add(3)
	g.Set(7)
	h.Observe(2)
	tm.Start()()
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 {
		t.Error("nil handles accumulated state")
	}
	if snap := r.Snapshot(); len(snap.Counters) != 0 || len(snap.Timers) != 0 {
		t.Errorf("nil snapshot = %+v", snap)
	}
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(buf.String()) != "{}" {
		t.Errorf("nil WriteJSON = %q, want {}", buf.String())
	}
}

func TestRegistryInstruments(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("frames")
	c.Inc()
	c.Add(2)
	if r.Counter("frames") != c {
		t.Fatal("same name must return the same counter")
	}
	if got := c.Value(); got != 3 {
		t.Fatalf("counter = %v, want 3", got)
	}
	g := r.Gauge("power")
	g.Set(1.5)
	g.Set(2.5)
	if got := g.Value(); got != 2.5 {
		t.Fatalf("gauge = %v, want 2.5", got)
	}
	h := r.Histogram("delay", []float64{0.1, 1, 10})
	for _, x := range []float64{0.05, 0.5, 0.5, 5, 100} {
		h.Observe(x)
	}
	if h.Count() != 5 || h.Sum() != 106.05 {
		t.Fatalf("histogram count/sum = %d/%v", h.Count(), h.Sum())
	}
	stop := r.Timer("phase").Start()
	stop()

	snap := r.Snapshot()
	if snap.Counters["frames"] != 3 || snap.Gauges["power"] != 2.5 {
		t.Fatalf("snapshot scalars wrong: %+v", snap)
	}
	hs := snap.Histograms["delay"]
	want := []int64{1, 2, 1, 1} // <=0.1, <=1, <=10, +Inf
	for i, w := range want {
		if hs.Counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (all %v)", i, hs.Counts[i], w, hs.Counts)
		}
	}
	if hs.Min != 0.05 || hs.Max != 100 {
		t.Fatalf("min/max = %v/%v", hs.Min, hs.Max)
	}
	if ts := snap.Timers["phase"]; ts.Count != 1 || ts.TotalS < 0 {
		t.Fatalf("timer snapshot wrong: %+v", ts)
	}

	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("snapshot JSON does not round-trip: %v", err)
	}
	if back.Counters["frames"] != 3 {
		t.Fatalf("round-tripped counter = %v", back.Counters["frames"])
	}
}

// TestSyncRegistrySameNameSharesInstrument: every kind hands out one
// instrument per name, so two handles for one name update one underlying
// instrument under one lock.
func TestSyncRegistrySameNameSharesInstrument(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("n")
	b := r.Counter("n")
	a.Inc()
	b.Inc()
	if got := a.Value(); got != 2 {
		t.Errorf("shared counter = %v, want 2", got)
	}
	if a != b || r.Gauge("g") != r.Gauge("g") ||
		r.Histogram("h", []float64{1}) != r.Histogram("h", nil) || r.Timer("t") != r.Timer("t") {
		t.Error("same name must return the same instrument")
	}
}

// TestRegistryConcurrentWriters hammers one registry from many goroutines
// while another snapshots it; run under -race this is the data-race proof,
// and the final totals prove no update was lost.
func TestRegistryConcurrentWriters(t *testing.T) {
	r := NewRegistry()
	const goroutines, per = 8, 1000
	var writers, reader sync.WaitGroup
	stop := make(chan struct{})
	reader.Add(1)
	go func() {
		defer reader.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if hs, ok := r.Snapshot().Histograms["lat"]; ok && hs.Count != sumCounts(hs.Counts) {
				t.Errorf("torn snapshot: count %d, buckets %v", hs.Count, hs.Counts)
				return
			}
		}
	}()
	writers.Add(goroutines)
	for range goroutines {
		go func() {
			defer writers.Done()
			c := r.Counter("req")
			g := r.Gauge("depth")
			h := r.Histogram("lat", []float64{1, 10, 100})
			tm := r.Timer("phase")
			for k := range per {
				c.Inc()
				g.Set(float64(k))
				h.Observe(float64(k % 200))
				tm.Start()()
			}
		}()
	}
	writers.Wait()
	close(stop)
	reader.Wait()
	snap := r.Snapshot()
	if got := snap.Counters["req"]; got != goroutines*per {
		t.Errorf("counter = %v, want %d", got, goroutines*per)
	}
	if hs := snap.Histograms["lat"]; hs.Count != goroutines*per || sumCounts(hs.Counts) != goroutines*per || len(hs.Counts) != 4 {
		t.Errorf("histogram = %+v, want %d observations in 4 buckets", hs, goroutines*per)
	}
	if got := snap.Timers["phase"].Count; got != goroutines*per {
		t.Errorf("timer count = %d, want %d", got, goroutines*per)
	}
}

func sumCounts(counts []int64) int64 {
	var n int64
	for _, c := range counts {
		n += c
	}
	return n
}

func TestTracerJSONLAndClock(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	tr.Emit(Event{T: 1.5, Kind: "arrival", Frame: 3, Queue: 2})
	tr.SetClock(func() float64 { return 7.25 })
	tr.Emit(Event{Kind: "sleep", Target: "standby"}) // stamped by the clock
	tr.Emit(Event{T: 9, Kind: "wake"})               // explicit T wins
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	if tr.Events() != 3 {
		t.Fatalf("events = %d, want 3", tr.Events())
	}
	var evs []Event
	sc := bufio.NewScanner(strings.NewReader(buf.String()))
	for sc.Scan() {
		var e Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("bad JSONL line %q: %v", sc.Text(), err)
		}
		evs = append(evs, e)
	}
	if len(evs) != 3 {
		t.Fatalf("got %d lines, want 3", len(evs))
	}
	if evs[0].T != 1.5 || evs[0].Kind != "arrival" || evs[0].Frame != 3 {
		t.Fatalf("event 0 = %+v", evs[0])
	}
	if evs[1].T != 7.25 || evs[1].Target != "standby" {
		t.Fatalf("clock stamp missing: %+v", evs[1])
	}
	if evs[2].T != 9 {
		t.Fatalf("explicit T overwritten: %+v", evs[2])
	}
	// Unused fields must be omitted from the wire format.
	if strings.Contains(strings.Split(buf.String(), "\n")[1], "frame") {
		t.Fatal("zero-valued fields must be omitted")
	}
}

func TestArtifactsLifecycle(t *testing.T) {
	dir := t.TempDir()
	metrics := filepath.Join(dir, "run.metrics.json")
	trace := filepath.Join(dir, "run.trace.jsonl")

	a, err := OpenArtifacts("", "", Manifest{})
	if err != nil || a != nil {
		t.Fatalf("both-empty must disable artifacts, got %v, %v", a, err)
	}
	if a.Observability() != nil {
		t.Fatal("nil artifacts must yield nil observability")
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}

	m := NewManifest("obs-test", 42, 3, map[string]any{"app": "mp3"})
	a, err = OpenArtifacts(metrics, trace, m)
	if err != nil {
		t.Fatal(err)
	}
	o := a.Observability()
	if o == nil || o.Registry() == nil || o.Tracer() == nil {
		t.Fatal("artifacts must carry both sinks")
	}
	o.Registry().Counter("sim.frames_decoded").Add(12)
	o.Tracer().Emit(Event{T: 1, Kind: "arrival", Frame: 1})
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}

	var snap Snapshot
	mustReadJSON(t, metrics, &snap)
	if snap.Counters["sim.frames_decoded"] != 12 {
		t.Fatalf("metrics snapshot = %+v", snap)
	}
	var back Manifest
	mustReadJSON(t, metrics+".manifest.json", &back)
	if back.Tool != "obs-test" || back.Seed != 42 || back.Workers != 3 {
		t.Fatalf("manifest = %+v", back)
	}
	if back.GoVersion == "" || back.CreatedAt == "" {
		t.Fatalf("manifest missing provenance: %+v", back)
	}
	if back.Config["app"] != "mp3" {
		t.Fatalf("manifest config = %+v", back.Config)
	}
}

func mustReadJSON(t *testing.T, path string, into any) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, into); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}
