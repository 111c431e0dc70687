// Package obs is the observability layer of the SmartBadge stack: a
// lightweight, allocation-conscious metrics registry (counters, gauges,
// fixed-bucket histograms and phase timers) plus a structured event tracer
// that streams simulator events as JSONL (see trace.go) and a per-run
// manifest writer (see manifest.go).
//
// The paper's evaluation (Tables 3-5, Figure 10) rests on quantities the
// simulator computes internally — per-component energy, frame delay
// distributions, detection latency, operating-point residency — and this
// package is how those quantities leave the process without printf
// archaeology.
//
// Design rules:
//
//   - Nil is the fast path. Every method on a nil *Registry, *Counter,
//     *Gauge, *Histogram, *PhaseTimer, *Tracer or *Obs is a no-op, so
//     instrumented code holds handles unconditionally and pays only a nil
//     check when observability is disabled. Simulation results are
//     bit-identical with and without an attached Obs.
//   - Handles are resolved once. Instrument points look a Counter or
//     Histogram up by name at construction time and then update through the
//     returned pointer: no map lookups or string hashing on hot paths.
//   - Single-writer instruments. A Registry's name table is guarded for
//     concurrent registration, but the instruments themselves are owned by
//     one goroutine at a time (one run = one registry), matching how the
//     simulator and the characterisation collector use them.
package obs

import (
	"encoding/json"
	"io"
	"time"
)

// Counter is a monotonically growing sum.
type Counter struct{ v float64 }

// Add increments the counter. No-op on a nil receiver.
func (c *Counter) Add(d float64) {
	if c != nil {
		c.v += d
	}
}

// Inc adds one. No-op on a nil receiver.
func (c *Counter) Inc() {
	if c != nil {
		c.v++
	}
}

// Value returns the current sum (0 for nil).
func (c *Counter) Value() float64 {
	if c == nil {
		return 0
	}
	return c.v
}

// Gauge is a last-write-wins value.
type Gauge struct{ v float64 }

// Set stores the value. No-op on a nil receiver.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.v = v
	}
}

// Value returns the stored value (0 for nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return g.v
}

// Histogram is a fixed-bucket cumulative-style histogram: bucket i counts
// observations x <= Bounds[i], with one implicit +Inf bucket at the end.
// Bounds are set at registration and never reallocated, so Observe is a
// branch-light scan with no allocation.
type Histogram struct {
	bounds []float64
	counts []int64 // len(bounds)+1; last is the +Inf bucket
	count  int64
	sum    float64
	min    float64
	max    float64
}

// Observe records one sample. No-op on a nil receiver.
func (h *Histogram) Observe(x float64) {
	if h == nil {
		return
	}
	if h.count == 0 || x < h.min {
		h.min = x
	}
	if h.count == 0 || x > h.max {
		h.max = x
	}
	h.count++
	h.sum += x
	for i, b := range h.bounds {
		if x <= b {
			h.counts[i]++
			return
		}
	}
	h.counts[len(h.bounds)]++
}

// Count returns the number of observations (0 for nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count
}

// Sum returns the sum of all observations (0 for nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.sum
}

// PhaseTimer accumulates wall-clock time spent in a named phase (off-line
// characterisation, a sweep, a replication batch). It measures real elapsed
// time, not simulated time.
type PhaseTimer struct {
	total time.Duration
	count int64
}

// Start begins one timed phase and returns the function that ends it.
// On a nil receiver both halves are no-ops.
func (t *PhaseTimer) Start() func() {
	if t == nil {
		return func() {}
	}
	start := time.Now() //lint:allow detcheck PhaseTimer measures real elapsed time by design
	return func() {
		t.total += time.Since(start) //lint:allow detcheck PhaseTimer measures real elapsed time by design
		t.count++
	}
}

// Total returns the accumulated duration (0 for nil).
func (t *PhaseTimer) Total() time.Duration {
	if t == nil {
		return 0
	}
	return t.total
}

// Registry holds one run's named instruments. The zero value is not usable;
// create with NewRegistry. A nil *Registry hands out nil instruments, whose
// methods are all no-ops — the disabled fast path.
type Registry struct {
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	timers   map[string]*PhaseTimer
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		timers:   make(map[string]*PhaseTimer),
	}
}

// Counter returns (registering on first use) the named counter.
// Returns nil on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns (registering on first use) the named gauge.
// Returns nil on a nil registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns (registering on first use) the named histogram with the
// given ascending bucket upper bounds. The bounds of the first registration
// win. Returns nil on a nil registry.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	h, ok := r.hists[name]
	if !ok {
		b := make([]float64, len(bounds))
		copy(b, bounds)
		h = &Histogram{bounds: b, counts: make([]int64, len(b)+1)}
		r.hists[name] = h
	}
	return h
}

// Timer returns (registering on first use) the named phase timer.
// Returns nil on a nil registry.
func (r *Registry) Timer(name string) *PhaseTimer {
	if r == nil {
		return nil
	}
	t, ok := r.timers[name]
	if !ok {
		t = &PhaseTimer{}
		r.timers[name] = t
	}
	return t
}

// HistogramSnapshot is the serialisable view of a Histogram.
type HistogramSnapshot struct {
	// Bounds are the bucket upper bounds; Counts has one extra trailing
	// entry for the +Inf bucket.
	Bounds []float64 `json:"le"`
	Counts []int64   `json:"counts"`
	Count  int64     `json:"count"`
	Sum    float64   `json:"sum"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
}

// TimerSnapshot is the serialisable view of a PhaseTimer.
type TimerSnapshot struct {
	Count  int64   `json:"count"`
	TotalS float64 `json:"total_s"`
}

// Snapshot is a point-in-time, serialisable copy of every instrument.
// encoding/json sorts map keys, so the output is stable for diffing.
type Snapshot struct {
	Counters   map[string]float64           `json:"counters,omitempty"`
	Gauges     map[string]float64           `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
	Timers     map[string]TimerSnapshot     `json:"timers,omitempty"`
}

// Snapshot copies the registry's current state. Empty on a nil registry.
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	if len(r.counters) > 0 {
		s.Counters = make(map[string]float64, len(r.counters))
		for name, c := range r.counters {
			s.Counters[name] = c.v
		}
	}
	if len(r.gauges) > 0 {
		s.Gauges = make(map[string]float64, len(r.gauges))
		for name, g := range r.gauges {
			s.Gauges[name] = g.v
		}
	}
	if len(r.hists) > 0 {
		s.Histograms = make(map[string]HistogramSnapshot, len(r.hists))
		for name, h := range r.hists {
			hs := HistogramSnapshot{
				Bounds: append([]float64(nil), h.bounds...),
				Counts: append([]int64(nil), h.counts...),
				Count:  h.count,
				Sum:    h.sum,
				Min:    h.min,
				Max:    h.max,
			}
			s.Histograms[name] = hs
		}
	}
	if len(r.timers) > 0 {
		s.Timers = make(map[string]TimerSnapshot, len(r.timers))
		for name, t := range r.timers {
			s.Timers[name] = TimerSnapshot{Count: t.count, TotalS: t.total.Seconds()}
		}
	}
	return s
}

// WriteJSON writes the registry snapshot as indented JSON. A nil registry
// writes an empty object, so callers need not special-case the disabled path.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

// Obs bundles the two observability sinks a run can carry. Either sink (or
// the whole bundle) may be nil. The sinks are reachable only through the
// nil-safe accessors, so no caller can bypass the disabled fast path.
type Obs struct {
	metrics *Registry
	trace   *Tracer
}

// New bundles a metrics registry and an event tracer; either may be nil.
func New(reg *Registry, tr *Tracer) *Obs { return &Obs{metrics: reg, trace: tr} }

// Registry returns the metrics registry, or nil when disabled.
func (o *Obs) Registry() *Registry {
	if o == nil {
		return nil
	}
	return o.metrics
}

// Tracer returns the event tracer, or nil when disabled.
func (o *Obs) Tracer() *Tracer {
	if o == nil {
		return nil
	}
	return o.trace
}
