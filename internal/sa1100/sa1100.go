// Package sa1100 models the StrongARM SA-1100 processor at the heart of the
// SmartBadge: its ladder of run-time selectable core clock frequencies, the
// minimum supply voltage required at each frequency (Figure 3 of the paper),
// the resulting active power at each operating point, and the latency of a
// frequency/voltage switch.
//
// The paper states that the SA-1100 "can be configured at run-time by a
// simple write to a hardware register to execute at one of eleven different
// frequencies", that each frequency has a minimum correct-operation voltage,
// and that the measured transition time between two frequency settings is
// small compared with a frame decode (the digits were lost in the source
// scan; the SA-1100 PLL relock time is ~150 µs, which we use as the default
// and expose as a parameter).
package sa1100

import (
	"fmt"
	"math"
	"sort"
)

// OperatingPoint is one frequency/voltage setting of the processor.
type OperatingPoint struct {
	FrequencyMHz float64 // core clock
	VoltageV     float64 // minimum supply voltage at this clock (Figure 3)
	ActivePowerW float64 // active (decoding) power at this point
}

// String implements fmt.Stringer.
func (op OperatingPoint) String() string {
	return fmt.Sprintf("%.1f MHz @ %.2f V (%.0f mW)", op.FrequencyMHz, op.VoltageV, op.ActivePowerW*1000)
}

// Config parameterises the processor model.
type Config struct {
	// FrequenciesMHz is the ascending ladder of selectable core clocks.
	FrequenciesMHz []float64
	// VMin and VMax anchor the minimum-voltage curve at the slowest and
	// fastest clocks; intermediate points follow Figure 3's near-linear shape.
	VMin, VMax float64
	// MaxActivePowerW is the active power at the fastest point; other points
	// scale as P ∝ f·V² (CMOS dynamic power).
	MaxActivePowerW float64
	// IdlePowerW is drawn in the idle state (clocks gated, PLL running).
	IdlePowerW float64
	// SleepPowerW is drawn in the standby/sleep state.
	SleepPowerW float64
	// SwitchLatency is the time to change between any two frequency/voltage
	// settings (seconds).
	SwitchLatency float64
}

// DefaultConfig returns the SA-1100 ladder used throughout the reproduction:
// eleven frequencies from 59.0 to 206.4 MHz in the SA-1100's 14.7456 MHz PLL
// steps plus the 221.2 MHz top bin, with voltage running 0.8 V to 1.5 V as in
// Figure 3 and 400 mW active power at the top point (SmartBadge
// measurements; see DESIGN.md on reconstructed constants).
func DefaultConfig() Config {
	return Config{
		FrequenciesMHz: []float64{
			59.0, 73.7, 88.5, 103.2, 118.0, 132.7,
			147.5, 162.2, 176.9, 191.7, 206.4, 221.2,
		},
		VMin:            0.8,
		VMax:            1.5,
		MaxActivePowerW: 0.400,
		IdlePowerW:      0.170,
		SleepPowerW:     0.0001,
		SwitchLatency:   150e-6,
	}
}

// Processor is an immutable table of operating points plus idle/sleep power.
type Processor struct {
	points        []OperatingPoint // ascending by frequency
	idlePowerW    float64
	sleepPowerW   float64
	switchLatency float64
}

// New builds a Processor from a Config. It returns an error if the ladder is
// empty, unsorted, non-positive, or the voltage/power anchors are invalid.
func New(cfg Config) (*Processor, error) {
	if len(cfg.FrequenciesMHz) == 0 {
		return nil, fmt.Errorf("sa1100: empty frequency ladder")
	}
	if cfg.VMin <= 0 || cfg.VMax < cfg.VMin {
		return nil, fmt.Errorf("sa1100: invalid voltage range [%v, %v]", cfg.VMin, cfg.VMax)
	}
	if cfg.MaxActivePowerW <= 0 {
		return nil, fmt.Errorf("sa1100: max active power must be positive")
	}
	if cfg.IdlePowerW < 0 || cfg.SleepPowerW < 0 || cfg.SwitchLatency < 0 {
		return nil, fmt.Errorf("sa1100: negative idle/sleep power or switch latency")
	}
	fMin := cfg.FrequenciesMHz[0]
	fMax := cfg.FrequenciesMHz[len(cfg.FrequenciesMHz)-1]
	if fMin <= 0 {
		return nil, fmt.Errorf("sa1100: frequencies must be positive")
	}
	pts := make([]OperatingPoint, len(cfg.FrequenciesMHz))
	for i, f := range cfg.FrequenciesMHz {
		if i > 0 && f <= cfg.FrequenciesMHz[i-1] {
			return nil, fmt.Errorf("sa1100: frequency ladder must be strictly ascending at index %d", i)
		}
		v := voltageFor(f, fMin, fMax, cfg.VMin, cfg.VMax)
		pts[i] = OperatingPoint{FrequencyMHz: f, VoltageV: v}
	}
	// P ∝ f · V², normalised so the top point draws MaxActivePowerW.
	top := pts[len(pts)-1]
	norm := cfg.MaxActivePowerW / (top.FrequencyMHz * top.VoltageV * top.VoltageV)
	for i := range pts {
		pts[i].ActivePowerW = norm * pts[i].FrequencyMHz * pts[i].VoltageV * pts[i].VoltageV
	}
	return &Processor{
		points:        pts,
		idlePowerW:    cfg.IdlePowerW,
		sleepPowerW:   cfg.SleepPowerW,
		switchLatency: cfg.SwitchLatency,
	}, nil
}

// MustNew is New for known-good configurations; it panics on error.
func MustNew(cfg Config) *Processor {
	p, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return p
}

// Default returns a Processor built from DefaultConfig.
func Default() *Processor { return MustNew(DefaultConfig()) }

// XScaleConfig returns a successor-generation (PXA25x-class) ladder for
// cross-platform ablations: four coarse frequency steps up to 400 MHz with a
// wider voltage range and a slower, PLL-relock-dominated switch. The paper's
// policies are ladder-agnostic; this preset measures how much the SA-1100's
// fine 12-step ladder is worth (see BenchmarkAblationProcessor).
func XScaleConfig() Config {
	return Config{
		FrequenciesMHz:  []float64{99.5, 199.1, 298.6, 398.1},
		VMin:            0.85,
		VMax:            1.30,
		MaxActivePowerW: 0.750,
		IdlePowerW:      0.120,
		SleepPowerW:     0.0001,
		SwitchLatency:   500e-6,
	}
}

// voltageFor reproduces the Figure 3 curve: close to linear in frequency with
// a slight convexity at the top end (the highest bins need proportionally
// more headroom). The curve is anchored at (fMin, vMin) and (fMax, vMax).
func voltageFor(f, fMin, fMax, vMin, vMax float64) float64 {
	if fMax == fMin {
		return vMax
	}
	x := (f - fMin) / (fMax - fMin)
	// 85 % linear + 15 % quadratic keeps the curve within the measured shape.
	shape := 0.85*x + 0.15*x*x
	return vMin + (vMax-vMin)*shape
}

// Points returns the operating points in ascending frequency order.
// The returned slice is a copy.
func (p *Processor) Points() []OperatingPoint {
	out := make([]OperatingPoint, len(p.points))
	copy(out, p.points)
	return out
}

// NumPoints returns the number of operating points.
func (p *Processor) NumPoints() int { return len(p.points) }

// Point returns the i-th operating point (ascending by frequency).
// It panics if i is out of range.
func (p *Processor) Point(i int) OperatingPoint {
	if i < 0 || i >= len(p.points) {
		panic(fmt.Sprintf("sa1100: operating point %d out of range [0,%d)", i, len(p.points)))
	}
	return p.points[i]
}

// Min returns the slowest operating point.
func (p *Processor) Min() OperatingPoint { return p.points[0] }

// Max returns the fastest operating point.
func (p *Processor) Max() OperatingPoint { return p.points[len(p.points)-1] }

// IdlePowerW returns the idle-state power.
func (p *Processor) IdlePowerW() float64 { return p.idlePowerW }

// SleepPowerW returns the standby/sleep-state power.
func (p *Processor) SleepPowerW() float64 { return p.sleepPowerW }

// SwitchLatency returns the frequency/voltage switch latency in seconds.
func (p *Processor) SwitchLatency() float64 { return p.switchLatency }

// IndexOf returns the ladder index whose frequency equals f (within 1 kHz),
// or -1 if f is not a ladder frequency.
func (p *Processor) IndexOf(f float64) int {
	for i, pt := range p.points {
		if math.Abs(pt.FrequencyMHz-f) < 1e-3 {
			return i
		}
	}
	return -1
}

// AtLeast returns the slowest operating point whose frequency is >= fMHz,
// quantising an ideal continuous frequency up to the ladder. If fMHz exceeds
// the fastest point, the fastest point is returned (the request is then not
// satisfiable and the caller runs flat out, exactly as the real PM would).
func (p *Processor) AtLeast(fMHz float64) OperatingPoint {
	i := sort.Search(len(p.points), func(i int) bool {
		return p.points[i].FrequencyMHz >= fMHz
	})
	if i == len(p.points) {
		return p.points[len(p.points)-1]
	}
	return p.points[i]
}

// VoltageFor returns the minimum voltage for an arbitrary frequency within
// the ladder span, interpolating the Figure 3 curve linearly between ladder
// points. Frequencies outside the span are clamped.
func (p *Processor) VoltageFor(fMHz float64) float64 {
	if fMHz <= p.points[0].FrequencyMHz {
		return p.points[0].VoltageV
	}
	last := p.points[len(p.points)-1]
	if fMHz >= last.FrequencyMHz {
		return last.VoltageV
	}
	i := sort.Search(len(p.points), func(i int) bool {
		return p.points[i].FrequencyMHz >= fMHz
	})
	lo, hi := p.points[i-1], p.points[i]
	t := (fMHz - lo.FrequencyMHz) / (hi.FrequencyMHz - lo.FrequencyMHz)
	return lo.VoltageV + t*(hi.VoltageV-lo.VoltageV)
}

// EnergyPerCycleRatio returns the energy-per-cycle at point i relative to the
// fastest point: (V_i/V_max)². This is the fundamental DVS gain — running the
// same cycles at a lower voltage costs quadratically less energy.
func (p *Processor) EnergyPerCycleRatio(i int) float64 {
	v := p.Point(i).VoltageV
	vMax := p.Max().VoltageV
	return (v * v) / (vMax * vMax)
}
