package policy

import "smartbadge/internal/obs"

// The watchdog's tuning. It trips when the buffer holds guardQueueHigh
// frames (an order of magnitude above the paper's delay allowances), or the
// controller's demand ratio (see Controller.DemandRatio) reaches
// guardDivergeRatio, for guardTripAfterS: transient bursts the controller
// absorbs on its own must not trip the fallback. It releases once the queue
// has stayed at or below guardQueueLow for guardRecoverAfterS; the gap
// between the two queue levels is the hysteresis band that keeps it from
// chattering around a single threshold.
const (
	guardQueueHigh     = 32
	guardQueueLow      = 4
	guardTripAfterS    = 0.75
	guardRecoverAfterS = 2.0
	guardDivergeRatio  = 1.5
)

// GuardStats is the watchdog's end-of-run summary.
type GuardStats struct {
	// Trips counts engagements (fallbacks to maximum performance).
	Trips int
	// EngagedS is the total time spent engaged (safe mode).
	EngagedS float64
	// Engaged reports whether the guard was still engaged at snapshot time —
	// a run that ends engaged never recovered.
	Engaged bool
	// LastRecoveryS is the duration of the most recent completed engagement:
	// the trip-to-release recovery time. Zero when no engagement completed.
	LastRecoveryS float64
}

// OverloadGuard is the overload watchdog: the graceful-degradation companion
// to the M/M/1 controller. The controller's delay guarantee rests on its
// rate estimates being roughly right; under a fault (an access-point
// outage's catch-up burst, a cross-traffic storm, heavy-tailed decode
// stragglers) the estimates lag reality and the frame buffer grows while the
// controller holds a mid-ladder operating point. The watchdog detects that
// regime and forces the safe fallback, maximum performance, until the
// backlog clears.
//
// The simulator reports buffer occupancy and controller demand through
// ObserveQueue/ObserveDemand at every buffer-changing event and consults
// Engaged when selecting the operating point for the next frame. All methods
// are safe on a nil receiver (the fast path when no guardrails are
// configured).
//
// The guard is deliberately time-driven rather than event-count-driven: both
// triggers require their condition to be sustained over simulated time, so
// the trip/recover behaviour is independent of how bursty the event stream is.
type OverloadGuard struct {
	// OnTrip, when non-nil, is called on every engagement — the hook that
	// lets a DPM guard mark its idle statistics suspect without this package
	// importing internal/dpm.
	OnTrip func(nowS float64)

	engaged bool
	// Condition onset times; negative means "not currently holding".
	aboveSinceS   float64
	divergeSinceS float64
	belowSinceS   float64
	tripAtS       float64

	trips         int
	engagedS      float64
	lastRecoveryS float64

	tr      *obs.Tracer
	cTrips  *obs.Counter
	cClears *obs.Counter
}

// NewOverloadGuard returns a disengaged guard.
func NewOverloadGuard() *OverloadGuard {
	return &OverloadGuard{aboveSinceS: -1, divergeSinceS: -1, belowSinceS: -1}
}

// Instrument attaches observability: engagements and releases are counted and
// traced as "guard_trip"/"guard_clear" events. A nil o is a no-op.
func (g *OverloadGuard) Instrument(o *obs.Obs) {
	if g == nil || o == nil {
		return
	}
	g.tr = o.Tracer()
	if r := o.Registry(); r != nil {
		g.cTrips = r.Counter("policy.guard_trips")
		g.cClears = r.Counter("policy.guard_clears")
	}
}

// Engaged reports whether the guard currently forces maximum performance.
func (g *OverloadGuard) Engaged() bool {
	if g == nil {
		return false
	}
	return g.engaged
}

// ObserveQueue reports the buffer occupancy at simulated time nowS. While
// disengaged it arms/advances the overload trigger; while engaged it
// arms/advances the hysteretic recovery.
func (g *OverloadGuard) ObserveQueue(nowS float64, queueLen int) {
	if g == nil {
		return
	}
	if g.engaged {
		if queueLen <= guardQueueLow {
			if g.belowSinceS < 0 {
				g.belowSinceS = nowS
			}
			if nowS-g.belowSinceS >= guardRecoverAfterS {
				g.release(nowS, queueLen)
			}
		} else {
			g.belowSinceS = -1
		}
		return
	}
	if queueLen >= guardQueueHigh {
		if g.aboveSinceS < 0 {
			g.aboveSinceS = nowS
		}
		if nowS-g.aboveSinceS >= guardTripAfterS {
			g.trip(nowS, queueLen)
		}
	} else {
		g.aboveSinceS = -1
	}
}

// ObserveDemand reports the controller's demand ratio at simulated time nowS
// (see Controller.DemandRatio). Only meaningful while disengaged.
func (g *OverloadGuard) ObserveDemand(nowS, demandRatio float64) {
	if g == nil || g.engaged {
		return
	}
	if demandRatio >= guardDivergeRatio {
		if g.divergeSinceS < 0 {
			g.divergeSinceS = nowS
		}
		if nowS-g.divergeSinceS >= guardTripAfterS {
			g.trip(nowS, -1)
		}
	} else {
		g.divergeSinceS = -1
	}
}

func (g *OverloadGuard) trip(nowS float64, queueLen int) {
	g.engaged = true
	g.trips++
	g.tripAtS = nowS
	g.aboveSinceS = -1
	g.divergeSinceS = -1
	g.belowSinceS = -1
	g.cTrips.Inc()
	if g.tr != nil {
		e := obs.Event{T: nowS, Kind: "guard_trip"}
		if queueLen >= 0 {
			e.Queue = queueLen
			e.Detail = "sustained queue growth"
		} else {
			e.Detail = "estimator divergence"
		}
		g.tr.Emit(e)
	}
	if g.OnTrip != nil {
		g.OnTrip(nowS)
	}
}

func (g *OverloadGuard) release(nowS float64, queueLen int) {
	g.engaged = false
	d := nowS - g.tripAtS
	g.engagedS += d
	g.lastRecoveryS = d
	g.belowSinceS = -1
	g.cClears.Inc()
	if g.tr != nil {
		g.tr.Emit(obs.Event{T: nowS, Kind: "guard_clear", Queue: queueLen, DelayS: d})
	}
}

// Stats snapshots the guard at simulated time nowS; an engagement still open
// at that time is counted into EngagedS. Zero value on a nil receiver.
func (g *OverloadGuard) Stats(nowS float64) GuardStats {
	if g == nil {
		return GuardStats{}
	}
	st := GuardStats{
		Trips:         g.trips,
		EngagedS:      g.engagedS,
		Engaged:       g.engaged,
		LastRecoveryS: g.lastRecoveryS,
	}
	if g.engaged {
		st.EngagedS += nowS - g.tripAtS
	}
	return st
}
