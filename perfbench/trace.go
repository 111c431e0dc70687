package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// span is one interval the benchmark timed around a call into a layer of
// the program. Spans of one badge or one request share Req.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent,omitempty"` // 0: root span
	Req     string `json:"req"`
	Name    string `json:"name"`
	Tag     string `json:"tag,omitempty"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	// AllocB is the process-wide heap allocation during the span; it is
	// recorded only by tracers made with allocs set, whose spans are serial.
	AllocB int64 `json:"alloc_b,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.EndNS - s.StartNS) }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced code paths call the same methods.
type tracer struct {
	mu     sync.Mutex
	epoch  time.Time
	allocs bool
	spans  []span
}

func newTracer(allocs bool) *tracer {
	return &tracer{epoch: time.Now(), allocs: allocs}
}

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(name, tag, req string, parent int) int {
	if t == nil {
		return 0
	}
	var a int64
	if t.allocs {
		a = heapAllocBytes()
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Req: req, Name: name, Tag: tag,
		StartNS: int64(time.Since(t.epoch)), AllocB: a,
	})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := int64(time.Since(t.epoch))
	var a int64
	if t.allocs {
		a = heapAllocBytes()
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.EndNS = now
	if t.allocs {
		s.AllocB = a - s.AllocB
	}
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeJSONL writes one span per line to path, creating its directory.
func writeJSONL(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

// heapAllocBytes is the cumulative heap allocation of the process, read
// without stopping the world.
func heapAllocBytes() int64 {
	metrics.Read(allocSample)
	return int64(allocSample[0].Value.Uint64())
}

// selfTimes returns, for each span, its duration minus the part of it that
// its children cover. Overlapping children count once.
func selfTimes(spans []span) []time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] = s.dur() - covered(s, children[s.ID])
	}
	return self
}

// covered is the length of the union of kids' intervals clipped to p.
func covered(p span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.StartNS, p.StartNS), min(k.EndNS, p.EndNS)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	for i, v := range ivs {
		switch {
		case i == 0:
			curA, curB = v.a, v.b
		case v.a > curB:
			total += curB - curA
			curA, curB = v.a, v.b
		case v.b > curB:
			curB = v.b
		}
	}
	if len(ivs) > 0 {
		total += curB - curA
	}
	return time.Duration(total)
}

// layerSum totals the self time and allocation of the spans called name
// (and carrying tag, when tag is not empty).
type layerSum struct {
	n     int
	self  time.Duration
	alloc int64
}

func sumLayer(spans []span, self []time.Duration, name, tag string) layerSum {
	var l layerSum
	for i, s := range spans {
		if s.Name == name && (tag == "" || s.Tag == tag) {
			l.n++
			l.self += self[i]
			l.alloc += s.AllocB
		}
	}
	return l
}
