// Package obsuse is obscheck's golden package: instrument handles are
// resolved outside loops.
package obsuse

import "smartbadge/internal/obs"

func accessorRead(reg *obs.Registry, tr *obs.Tracer) (*obs.Registry, *obs.Tracer) {
	o := obs.New(reg, tr)
	return o.Registry(), o.Tracer()
}

// snapshotRead reads the exported fields of a plain obs data type. There is
// no accessor to bypass, so nothing is flagged.
func snapshotRead(reg *obs.Registry) map[string]float64 {
	return reg.Snapshot().Counters
}

func inLoop(reg *obs.Registry, xs []float64) {
	for _, x := range xs {
		reg.Counter("samples").Add(x) // want `called inside a loop`
	}
	for i := 0; i < len(xs); i++ {
		reg.Histogram("dist", []float64{1, 10}).Observe(xs[i]) // want `called inside a loop`
	}
}

func hoisted(reg *obs.Registry, xs []float64) {
	c := reg.Counter("samples")
	h := reg.Histogram("dist", []float64{1, 10})
	for _, x := range xs {
		c.Add(x)
		h.Observe(x)
	}
}

// allowedLoop demonstrates the escape hatch for dynamic instrument names.
func allowedLoop(reg *obs.Registry, names []string) {
	for _, name := range names {
		//lint:allow obscheck per-name gauges resolved once at end of run; golden case
		reg.Gauge(name).Set(1)
	}
}
