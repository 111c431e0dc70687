package workload

import (
	"fmt"
	"math"

	"smartbadge/internal/stats"
)

// TraceFrame is one frame of a generated workload trace.
type TraceFrame struct {
	// Seq is the frame index within the trace.
	Seq int
	// Arrival is the absolute arrival time (seconds from trace start).
	Arrival float64
	// Work is the decode time this frame requires at the maximum CPU
	// frequency (seconds), including its GOP multiplier.
	Work float64
	// ClipIndex identifies which entry of the generating clip list this frame
	// belongs to.
	ClipIndex int
	// TrueArrivalRate is the generating λU at this frame's arrival — oracle
	// information consumed only by the ideal detector baseline.
	TrueArrivalRate float64
	// TrueDecodeRateMax is the generating mean λD at the maximum CPU
	// frequency — oracle information for the ideal detector.
	TrueDecodeRateMax float64
}

// RateChange records a point where the generating rates changed — the
// boundaries the ideal detector reacts to instantaneously.
type RateChange struct {
	Time              float64
	ArrivalRate       float64
	DecodeRateMax     float64
	ClipIndex         int
	SegmentIndex      int
	FirstFrameOfRange int // Seq of the first frame generated at these rates
}

// Trace is a complete generated workload: the frame stream plus the oracle
// rate-change schedule and bookkeeping about idle gaps.
type Trace struct {
	Frames  []TraceFrame
	Changes []RateChange
	// Duration is the time from trace start to the last frame arrival.
	Duration float64
	// IdleGaps lists the lengths (seconds) of the inter-clip idle gaps that
	// were inserted, in order. Empty when generated without gaps.
	IdleGaps []float64
	// Kind is the application kind of the trace's clips (mixed traces report
	// the kind of the first clip; the simulator tracks per-frame clips).
	Kind Kind
	// Clips is the generating clip list.
	Clips []Clip
}

// GenerateOptions controls trace generation.
type GenerateOptions struct {
	// Gap, if non-nil, is sampled between consecutive clips to produce the
	// idle periods the DPM policy exploits (Table 5 scenario). Nil packs the
	// clips back to back (Tables 3-4 scenario).
	Gap stats.Distribution
	// LeadIn inserts this much silence before the first frame.
	LeadIn float64
}

// Generate produces a workload trace for the given clip list. Interarrival
// times within a segment are exponential at the segment's arrival rate;
// per-frame decode work at maximum frequency is exponential with mean
// 1/DecodeRateMax, scaled by the clip's normalised GOP multiplier cycle.
// Generation is deterministic for a given RNG state.
func Generate(rng *stats.RNG, clips []Clip, opts GenerateOptions) (*Trace, error) {
	if len(clips) == 0 {
		return nil, fmt.Errorf("workload: no clips to generate")
	}
	tr := &Trace{Kind: clips[0].Kind, Clips: clips, Frames: make([]TraceFrame, 0, expectedFrames(clips))}
	now := opts.LeadIn
	if now < 0 {
		return nil, fmt.Errorf("workload: negative lead-in %v", opts.LeadIn)
	}
	for ci, clip := range clips {
		if err := clip.Validate(); err != nil {
			return nil, err
		}
		if ci > 0 && opts.Gap != nil {
			g := opts.Gap.Sample(rng)
			if g < 0 {
				return nil, fmt.Errorf("workload: gap distribution produced negative gap %v", g)
			}
			tr.IdleGaps = append(tr.IdleGaps, g)
			now += g
		}
		gop := normalisedGOP(clip.GOP)
		gopPos := 0
		for si, seg := range clip.Segments {
			tr.Changes = append(tr.Changes, RateChange{
				Time:              now,
				ArrivalRate:       seg.ArrivalRate,
				DecodeRateMax:     seg.DecodeRateMax,
				ClipIndex:         ci,
				SegmentIndex:      si,
				FirstFrameOfRange: len(tr.Frames),
			})
			segEnd := now + seg.Duration
			for {
				gap := rng.Exp(seg.ArrivalRate)
				if now+gap > segEnd {
					now = segEnd
					break
				}
				now += gap
				work := rng.Exp(seg.DecodeRateMax)
				if len(gop) > 0 {
					work *= gop[gopPos%len(gop)]
					gopPos++
				}
				tr.Frames = append(tr.Frames, TraceFrame{
					Seq:               len(tr.Frames),
					Arrival:           now,
					Work:              work,
					ClipIndex:         ci,
					TrueArrivalRate:   seg.ArrivalRate,
					TrueDecodeRateMax: seg.DecodeRateMax,
				})
			}
		}
	}
	if len(tr.Frames) == 0 {
		return nil, fmt.Errorf("workload: generated an empty trace")
	}
	tr.Duration = tr.Frames[len(tr.Frames)-1].Arrival
	return tr, nil
}

// maxFrameHint caps Generate's up-front frame allocation (48 MiB of frames);
// longer traces grow by append.
const maxFrameHint = 1 << 20

// expectedFrames returns a capacity for the frames Generate draws from clips:
// the Poisson mean Σ duration·arrival rate plus four standard deviations and
// a little slack, capped at maxFrameHint. Clips loaded from a file may hold
// any values, so a hint that is not finite and positive gives 0.
func expectedFrames(clips []Clip) int {
	mean := 0.0
	for _, c := range clips {
		for _, s := range c.Segments {
			mean += s.Duration * s.ArrivalRate
		}
	}
	hint := mean + 4*math.Sqrt(mean) + 16
	if !(hint > 0) || math.IsInf(hint, 1) {
		return 0
	}
	return int(math.Min(hint, maxFrameHint))
}

// normalisedGOP scales a multiplier cycle so its mean is exactly 1,
// preserving each segment's mean decode rate. A nil/empty GOP returns nil.
func normalisedGOP(gop []float64) []float64 {
	if len(gop) == 0 {
		return nil
	}
	sum := 0.0
	for _, m := range gop {
		sum += m
	}
	mean := sum / float64(len(gop))
	out := make([]float64, len(gop))
	for i, m := range gop {
		out[i] = m / mean
	}
	return out
}

// StepTrace generates the Figure 10 scenario: a single stream whose arrival
// rate steps from rate1 to rate2 after n1 frames (n2 frames follow at the new
// rate). Decode work is exponential at decodeRateMax throughout.
func StepTrace(rng *stats.RNG, rate1, rate2, decodeRateMax float64, n1, n2 int) (*Trace, error) {
	if rate1 <= 0 || rate2 <= 0 || decodeRateMax <= 0 {
		return nil, fmt.Errorf("workload: step trace rates must be positive")
	}
	if n1 <= 0 || n2 <= 0 {
		return nil, fmt.Errorf("workload: step trace needs positive frame counts")
	}
	tr := &Trace{Kind: MP3, Frames: make([]TraceFrame, 0, n1+n2)}
	now := 0.0
	add := func(rate float64, n int) {
		tr.Changes = append(tr.Changes, RateChange{
			Time:              now,
			ArrivalRate:       rate,
			DecodeRateMax:     decodeRateMax,
			FirstFrameOfRange: len(tr.Frames),
		})
		for i := 0; i < n; i++ {
			now += rng.Exp(rate)
			tr.Frames = append(tr.Frames, TraceFrame{
				Seq:               len(tr.Frames),
				Arrival:           now,
				Work:              rng.Exp(decodeRateMax),
				TrueArrivalRate:   rate,
				TrueDecodeRateMax: decodeRateMax,
			})
		}
	}
	add(rate1, n1)
	add(rate2, n2)
	tr.Duration = now
	return tr, nil
}

// Validate checks the structural invariants the simulator relies on: at
// least one frame; Seq equal to slice index (the simulator addresses frames
// by index); finite, non-negative, non-decreasing arrivals; finite,
// non-negative decode work; positive finite oracle rates; and a non-empty
// rate-change schedule (the controller initialises from Changes[0]). Traces
// built by this package's generators satisfy all of these; Validate exists
// for traces arriving over the library boundary (CSV replay, hand-built
// fixtures, fault injection).
func (t *Trace) Validate() error {
	if t == nil {
		return fmt.Errorf("workload: nil trace")
	}
	if len(t.Frames) == 0 {
		return fmt.Errorf("workload: trace has no frames")
	}
	if len(t.Changes) == 0 {
		return fmt.Errorf("workload: trace has no rate-change schedule")
	}
	prev := 0.0
	for i, f := range t.Frames {
		if f.Seq != i {
			return fmt.Errorf("workload: frame %d has Seq %d (frames must be indexed in order)", i, f.Seq)
		}
		if math.IsNaN(f.Arrival) || math.IsInf(f.Arrival, 0) || f.Arrival < 0 {
			return fmt.Errorf("workload: frame %d has invalid arrival time %v", i, f.Arrival)
		}
		if f.Arrival < prev {
			return fmt.Errorf("workload: frame %d arrives at %v, before frame %d at %v", i, f.Arrival, i-1, prev)
		}
		prev = f.Arrival
		if math.IsNaN(f.Work) || math.IsInf(f.Work, 0) || f.Work < 0 {
			return fmt.Errorf("workload: frame %d has invalid decode work %v", i, f.Work)
		}
	}
	for i, c := range t.Changes {
		if !(c.ArrivalRate > 0) || math.IsInf(c.ArrivalRate, 0) {
			return fmt.Errorf("workload: rate change %d has invalid arrival rate %v", i, c.ArrivalRate)
		}
		if !(c.DecodeRateMax > 0) || math.IsInf(c.DecodeRateMax, 0) {
			return fmt.Errorf("workload: rate change %d has invalid decode rate %v", i, c.DecodeRateMax)
		}
	}
	return nil
}

// Interarrivals returns the trace's interarrival gaps (first gap measured
// from time zero), used for distribution fitting (Figure 6).
func (t *Trace) Interarrivals() []float64 {
	out := make([]float64, len(t.Frames))
	prev := 0.0
	for i, f := range t.Frames {
		out[i] = f.Arrival - prev
		prev = f.Arrival
	}
	return out
}

// TotalWork returns the sum of frame decode times at maximum frequency.
func (t *Trace) TotalWork() float64 {
	w := 0.0
	for _, f := range t.Frames {
		w += f.Work
	}
	return w
}

// IdleModel returns the distribution of idle-period lengths a power manager
// will face on this trace: overwhelmingly the short residual gaps between
// frame arrivals within a clip (approximately exponential at the trace's
// active arrival rate), plus — when the trace has inter-clip gaps — a heavy
// tail fitted to those gaps. This composite is what the renewal-theory DPM
// policy must optimise its timeout against; optimising against the long-gap
// tail alone would make it doze between individual frames.
func (t *Trace) IdleModel() stats.Distribution {
	gapTotal := 0.0
	for _, g := range t.IdleGaps {
		gapTotal += g
	}
	activeTime := t.Duration - gapTotal
	shortRate := 20.0 // fallback: mid-band frame rate
	if activeTime > 0 && len(t.Frames) > 1 {
		shortRate = float64(len(t.Frames)) / activeTime
	}
	short := stats.NewExponential(shortRate)
	if len(t.IdleGaps) < 3 {
		return short
	}
	tail, err := stats.FitPareto(t.IdleGaps)
	if err != nil {
		return short
	}
	return stats.NewMixture(
		[]float64{float64(len(t.Frames)), float64(len(t.IdleGaps))},
		[]stats.Distribution{short, tail},
	)
}

// RatesAt returns the generating rates in force at time tm (oracle lookup for
// the ideal detector). Before the first change it returns the first change's
// rates.
func (t *Trace) RatesAt(tm float64) (arrival, decodeMax float64) {
	if len(t.Changes) == 0 {
		return 0, 0
	}
	cur := t.Changes[0]
	for _, c := range t.Changes {
		if c.Time > tm {
			break
		}
		cur = c
	}
	return cur.ArrivalRate, cur.DecodeRateMax
}
