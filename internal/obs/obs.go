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
//     *Gauge, *Histogram, *PhaseTimer, *Tracer or *Obs is a no-op that
//     returns before it touches a lock, so instrumented code holds handles
//     unconditionally and pays only a nil check when observability is
//     disabled; the updaters (Add, Inc, Set, Observe) keep their locked
//     bodies out of line so that check inlines into the caller. Simulation
//     results are bit-identical with and without an attached Obs.
//   - Handles are resolved once. Instrument points look a Counter or
//     Histogram up by name at construction time and then update through the
//     returned pointer: no map lookups or string hashing on hot paths. The
//     Registry counts its name resolutions, and a test pins that the count
//     does not grow with the length of the simulated workload.
//   - One lock per registry. Every name lookup, instrument update and
//     Snapshot takes the registry's mutex, which each instrument shares, so
//     any number of goroutines (concurrent runs, fleet shards, request
//     handlers) may write one registry and a snapshot is consistent across
//     instruments. A Registry must not be copied.
package obs

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// Counter is a monotonically growing sum.
type Counter struct {
	mu *sync.Mutex // the registry's
	v  float64
}

// Add increments the counter. No-op on a nil receiver.
func (c *Counter) Add(d float64) {
	if c != nil {
		c.add(d)
	}
}

// add is Add's body, kept out of line so that the nil check inlines.
func (c *Counter) add(d float64) {
	c.mu.Lock()
	c.v += d
	c.mu.Unlock()
}

// Inc adds one. No-op on a nil receiver.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current sum (0 for nil).
func (c *Counter) Value() float64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.v
}

// Gauge is a last-write-wins value.
type Gauge struct {
	mu *sync.Mutex // the registry's
	v  float64
}

// Set stores the value. No-op on a nil receiver.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.set(v)
	}
}

// set is Set's body, kept out of line so that the nil check inlines.
func (g *Gauge) set(v float64) {
	g.mu.Lock()
	g.v = v
	g.mu.Unlock()
}

// Value returns the stored value (0 for nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.v
}

// Histogram is a fixed-bucket cumulative-style histogram: bucket i counts
// observations x <= Bounds[i], with one implicit +Inf bucket at the end.
// Bounds are set at registration and never reallocated, so Observe is a
// branch-light scan with no allocation.
type Histogram struct {
	mu     *sync.Mutex // the registry's
	bounds []float64
	counts []int64 // len(bounds)+1; last is the +Inf bucket
	count  int64
	sum    float64
	min    float64
	max    float64
}

// Observe records one sample. No-op on a nil receiver.
func (h *Histogram) Observe(x float64) {
	if h != nil {
		h.observe(x)
	}
}

// observe is Observe's body, kept out of line so that the nil check, which
// the simulator pays once per frame when observability is off, inlines into
// callers.
func (h *Histogram) observe(x float64) {
	bucket := len(h.bounds)
	for i, b := range h.bounds {
		if x <= b {
			bucket = i
			break
		}
	}
	h.mu.Lock()
	if h.count == 0 || x < h.min {
		h.min = x
	}
	if h.count == 0 || x > h.max {
		h.max = x
	}
	h.count++
	h.sum += x
	h.counts[bucket]++
	h.mu.Unlock()
}

// Count returns the number of observations (0 for nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Sum returns the sum of all observations (0 for nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// PhaseTimer accumulates wall-clock time spent in a named phase (off-line
// characterisation, a sweep, a replication batch). It measures real elapsed
// time, not simulated time.
type PhaseTimer struct {
	mu    *sync.Mutex // the registry's
	total time.Duration
	count int64
}

// Start begins one timed phase and returns the function that ends it. The
// clock is read outside the lock. On a nil receiver both halves are no-ops.
func (t *PhaseTimer) Start() func() {
	if t == nil {
		return func() {}
	}
	start := time.Now() //lint:allow detcheck PhaseTimer measures real elapsed time by design
	return func() {
		d := time.Since(start) //lint:allow detcheck PhaseTimer measures real elapsed time by design
		t.mu.Lock()
		t.total += d
		t.count++
		t.mu.Unlock()
	}
}

// Registry holds named instruments, written by one run or by many
// concurrent ones. The zero value is not usable; create with NewRegistry. A
// nil *Registry hands out nil instruments, whose methods are all no-ops —
// the disabled fast path.
type Registry struct {
	// mu guards the name tables, lookups and every instrument's state;
	// each instrument holds a pointer to it.
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	timers   map[string]*PhaseTimer
	// lookups counts name resolutions (Counter, Gauge, Histogram, Timer
	// calls), read by tests to prove handles are resolved once per run.
	lookups int
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
	r.mu.Lock()
	defer r.mu.Unlock()
	r.lookups++
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{mu: &r.mu}
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
	r.mu.Lock()
	defer r.mu.Unlock()
	r.lookups++
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{mu: &r.mu}
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
	r.mu.Lock()
	defer r.mu.Unlock()
	r.lookups++
	h, ok := r.hists[name]
	if !ok {
		b := make([]float64, len(bounds))
		copy(b, bounds)
		h = &Histogram{mu: &r.mu, bounds: b, counts: make([]int64, len(b)+1)}
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
	r.mu.Lock()
	defer r.mu.Unlock()
	r.lookups++
	t, ok := r.timers[name]
	if !ok {
		t = &PhaseTimer{mu: &r.mu}
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

// Snapshot copies the registry's current state; no update is ever
// half-visible. Empty on a nil registry.
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
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
