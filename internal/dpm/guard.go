package dpm

import "smartbadge/internal/obs"

// The Guard's tuning: a WLAN outage manifests as one idle period tens of
// times longer than the running mean (frames stop arriving entirely), and
// 256 idle-entry decisions cover the catch-up burst that follows it at
// streaming frame rates.
const (
	// guardSpikeFactor is how many times the running mean an idle period
	// must exceed to make the statistics suspect.
	guardSpikeFactor = 50.0
	// guardHold is how many idle-entry decisions a suspicion vetoes.
	guardHold = 256
)

// Guard wraps a Policy with a graceful-degradation veto. The renewal and
// TISMDP policies assume a stationary idle-time distribution; a WLAN outage
// violates that assumption — the outage itself looks like one enormous idle
// period, and the catch-up burst after it makes recent history useless for
// predicting the next idle. While the statistics are suspect, entering deep
// sleep risks paying a wake-up latency (and transition energy) right as the
// backlog floods in, so the guard refuses to sleep until the suspect window
// has passed.
//
// Suspicion arises two ways: internally, when an observed idle period
// exceeds guardSpikeFactor times the running mean (with at least
// minGuardSamples observations so early noise cannot trigger it); and
// externally, via NoteSuspicion — the hook the overload watchdog
// (policy.OverloadGuard) drives when it trips. Either way the next guardHold
// idle-entry decisions return "stay awake", then the wrapped policy resumes
// untouched.
type Guard struct {
	inner Policy

	meanS      float64
	samples    int
	hold       int
	vetoes     int
	suspicions int

	tr       *obs.Tracer
	cVeto    *obs.Counter
	cSuspect *obs.Counter
}

// minGuardSamples is how many idle periods the guard must see before its
// spike detector may fire.
const minGuardSamples = 16

// NewGuard wraps inner, which must be non-nil, with the sleep veto.
func NewGuard(inner Policy) *Guard { return &Guard{inner: inner} }

// Instrument attaches observability: every vetoed sleep decision is counted
// and traced as "dpm_veto", every suspicion onset as "dpm_suspect". Events
// carry no explicit time; the simulator's tracer clock stamps them. A nil o
// is a no-op.
func (g *Guard) Instrument(o *obs.Obs) {
	if g == nil || o == nil {
		return
	}
	g.tr = o.Tracer()
	if r := o.Registry(); r != nil {
		g.cVeto = r.Counter("dpm.guard_vetoes")
		g.cSuspect = r.Counter("dpm.guard_suspicions")
	}
}

// NoteSuspicion marks the idle statistics untrustworthy on an external signal
// (the overload watchdog tripping): the next guardHold decisions are vetoed.
// Safe on a nil receiver.
func (g *Guard) NoteSuspicion() {
	if g == nil {
		return
	}
	g.suspect("external")
}

func (g *Guard) suspect(why string) {
	g.hold = guardHold
	g.suspicions++
	g.cSuspect.Inc()
	if g.tr != nil {
		g.tr.Emit(obs.Event{Kind: "dpm_suspect", Comp: g.inner.Name(), Detail: why})
	}
}

// Decide implements Policy: while holding, every decision is "stay awake";
// otherwise the wrapped policy decides.
func (g *Guard) Decide(oracleIdle float64) Decision {
	if g.hold > 0 {
		g.hold--
		g.vetoes++
		g.cVeto.Inc()
		if g.tr != nil {
			g.tr.Emit(obs.Event{Kind: "dpm_veto", Comp: g.inner.Name()})
		}
		return Decision{}
	}
	return g.inner.Decide(oracleIdle)
}

// ObserveIdle implements Policy: the observation is forwarded to the wrapped
// policy, then checked against the spike detector. The running mean is
// updated after the check so an outlier cannot hide itself.
func (g *Guard) ObserveIdle(durationS float64) {
	g.inner.ObserveIdle(durationS)
	if g.samples >= minGuardSamples && durationS > guardSpikeFactor*g.meanS {
		g.suspect("idle spike")
	}
	g.samples++
	g.meanS += (durationS - g.meanS) / float64(g.samples)
}

// Name implements Policy.
func (g *Guard) Name() string { return "guarded(" + g.inner.Name() + ")" }

// Vetoes returns how many sleep decisions the guard overrode.
func (g *Guard) Vetoes() int {
	if g == nil {
		return 0
	}
	return g.vetoes
}

// Suspicions returns how many times the guard entered the suspect state.
func (g *Guard) Suspicions() int {
	if g == nil {
		return 0
	}
	return g.suspicions
}
