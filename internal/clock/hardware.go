// Package clock models the clocks of the Srikanth-Toueg system: hardware
// clocks with bounded drift and logical clocks obtained from them by an
// adjustment that jumps or slews.
//
// A hardware clock is a strictly increasing, continuous, piecewise-linear
// function H mapping real time t to local time H(t). The model requires
// that for all t' >= t
//
//	(t'-t)/(1+rho) <= H(t') - H(t) <= (1+rho)(t'-t),
//
// i.e. every segment's rate lies in [1/(1+rho), 1+rho]. The adversary of the
// paper chooses these functions arbitrarily within the envelope; here they
// are built from pluggable segment generators (constant, random walk).
//
// A clock's segments come from its generator, with all randomness drawn
// from an injected deterministic source of which the clock is the only
// consumer. A clock may be materialized ahead, through an instant the run
// is known to reach, into storage sized once (Materialize); reads past the
// materialized segments extend it on demand. Either way it draws the same
// segments in the same order, so a clock is a function of its source alone.
package clock

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Generator produces successive clock segments. Implementations must be
// deterministic given the random source passed to them.
type Generator interface {
	// NextSegment returns the real-time duration of the next segment and
	// the clock rate during it. Duration must be positive and the rate
	// must lie in the drift envelope of the clock using the generator.
	NextSegment(rng *rand.Rand) (dur, rate float64)
}

// Hardware is a piecewise-linear hardware clock.
type Hardware struct {
	// Breakpoints: H(ts[i]) = hs[i]; on [ts[i], ts[i+1]) the rate is rates[i].
	ts    []float64
	hs    []float64
	rates []float64

	gen Generator
	rng *rand.Rand

	// readSeg and invertSeg are the segments the last Read and the last
	// Invert landed in: segmentOf's first guesses.
	readSeg, invertSeg int

	minRate, maxRate float64
}

// Rho is a drift bound. MinRate and MaxRate convert it to the rate envelope
// used throughout the paper: rates in [1/(1+rho), 1+rho].
type Rho float64

// MinRate returns the slowest admissible clock rate, 1/(1+rho).
func (r Rho) MinRate() float64 { return 1 / (1 + float64(r)) }

// MaxRate returns the fastest admissible clock rate, 1+rho.
func (r Rho) MaxRate() float64 { return 1 + float64(r) }

// RelativeDrift returns the maximum rate at which two correct hardware
// clocks can drift apart: (1+rho) - 1/(1+rho).
func (r Rho) RelativeDrift() float64 { return r.MaxRate() - r.MinRate() }

// NewHardware builds a clock that reads offset at real time 0 and evolves
// according to gen. The rng must be dedicated to this clock (derive it from
// the engine's seed), and the clock must be its only consumer. rho bounds
// the admissible rates; NewHardware panics if a generator ever emits a rate
// outside [1/(1+rho), 1+rho] or a non-positive duration, since that would
// violate the model rather than be a runtime condition.
func NewHardware(offset float64, rho Rho, gen Generator, rng *rand.Rand) *Hardware {
	if gen == nil {
		gen = Constant{Rate: 1}
	}
	origin := []float64{0, offset}
	return &Hardware{
		ts:      origin[0:1:1],
		hs:      origin[1:2:2],
		gen:     gen,
		rng:     rng,
		minRate: rho.MinRate(),
		maxRate: rho.MaxRate(),
	}
}

// NewConstant is a convenience constructor for a fixed-rate clock.
func NewConstant(offset, rate float64, rho Rho) *Hardware {
	return NewHardware(offset, rho, Constant{Rate: rate}, nil)
}

// Offset returns H(0).
func (h *Hardware) Offset() float64 { return h.hs[0] }

// RateBounds returns the admissible rate envelope of this clock.
func (h *Hardware) RateBounds() (min, max float64) { return h.minRate, h.maxRate }

// extendTo materializes segments until the last breakpoint's real time is
// strictly greater than t.
func (h *Hardware) extendTo(t float64) {
	for h.ts[len(h.ts)-1] <= t {
		h.appendSegment()
	}
}

// extendToLocal materializes segments until the last breakpoint's local
// time is strictly greater than local.
func (h *Hardware) extendToLocal(local float64) {
	for h.hs[len(h.hs)-1] <= local {
		h.appendSegment()
	}
}

// MaxMaterialized caps the segments Materialize draws ahead for one clock,
// so that building a run toward a distant horizon costs no more than the
// run itself would until it is stopped.
const MaxMaterialized = 1 << 12

// Scratch is drawing space for Materialize. One Scratch serves any number
// of clocks, one at a time; it is not safe for concurrent use.
type Scratch struct{ ts, hs, rates []float64 }

// Materialize draws the clock's segments until one ends after real time t,
// or MaxMaterialized are drawn, and stores every breakpoint in one exactly
// sized array, so a run that reads the clock no later than t never grows
// it. It draws in s first, then copies. The segments are those a read
// would draw, in the same order; reads past them extend the clock as
// before.
func (h *Hardware) Materialize(t float64, s *Scratch) {
	h.ts = append(s.ts[:0], h.ts...)
	h.hs = append(s.hs[:0], h.hs...)
	h.rates = append(s.rates[:0], h.rates...)
	for h.ts[len(h.ts)-1] <= t && len(h.rates) < MaxMaterialized {
		h.appendSegment()
	}
	*s = Scratch{h.ts, h.hs, h.rates}
	n := len(s.ts)
	all := make([]float64, 3*n-1)
	h.ts, h.hs, h.rates = all[:n:n], all[n:2*n:2*n], all[2*n:]
	copy(h.ts, s.ts)
	copy(h.hs, s.hs)
	copy(h.rates, s.rates)
}

func (h *Hardware) appendSegment() {
	dur, rate := h.gen.NextSegment(h.rng)
	if dur <= 0 || math.IsNaN(dur) || math.IsInf(dur, 0) {
		panic(fmt.Sprintf("clock: generator emitted invalid duration %v", dur))
	}
	const slack = 1e-12 // tolerate float rounding at the envelope edge
	if rate < h.minRate-slack || rate > h.maxRate+slack {
		panic(fmt.Sprintf("clock: generator emitted rate %v outside [%v, %v]",
			rate, h.minRate, h.maxRate))
	}
	last := len(h.ts) - 1
	h.rates = append(h.rates, rate)
	h.ts = append(h.ts, h.ts[last]+dur)
	h.hs = append(h.hs, h.hs[last]+dur*rate)
}

// Read returns the local time H(t). t must be >= 0.
func (h *Hardware) Read(t float64) float64 {
	if t < 0 {
		panic(fmt.Sprintf("clock: Read(%v) before time 0", t))
	}
	h.extendTo(t)
	i := segmentOf(h.ts, t, h.readSeg)
	h.readSeg = i
	return h.hs[i] + (t-h.ts[i])*h.rates[i]
}

// segmentOf returns the segment Read and Invert evaluate x in, given the
// breakpoints xs extended past x: the first i with xs[i] == x, else the
// last with xs[i] < x. Simulated time only moves forward, so nearly every
// call lands in segment hint, where the previous call of its kind landed,
// or in the one after it, also when the clock is materialized far ahead;
// those two are tried before the binary search over the whole history,
// and name the same index.
func segmentOf(xs []float64, x float64, hint int) int {
	for i := hint; i <= hint+1 && i+1 < len(xs); i++ {
		if xs[i] < x && x < xs[i+1] {
			return i
		}
	}
	i := sort.SearchFloat64s(xs, x)
	if i == len(xs) || xs[i] > x {
		i--
	}
	if i == len(xs)-1 {
		i-- // x exactly at the last breakpoint
	}
	return i
}

// Invert returns the earliest real time t with H(t) >= local. For local
// values before H(0) it returns 0 (the clock already shows them or more);
// for +Inf it returns +Inf, which no segment reaches.
func (h *Hardware) Invert(local float64) float64 {
	if local <= h.hs[0] {
		return 0
	}
	if math.IsInf(local, 1) {
		return local
	}
	h.extendToLocal(local)
	i := segmentOf(h.hs, local, h.invertSeg)
	h.invertSeg = i
	return h.ts[i] + (local-h.hs[i])/h.rates[i]
}

// Breakpoints returns the real times at which the materialized segments
// start, and the one at which the last of them ends: H is linear between
// two consecutive ones. The slice is the clock's own; callers must not
// modify it.
func (h *Hardware) Breakpoints() []float64 { return h.ts[:len(h.ts):len(h.ts)] }

// Constant emits an endless run of fixed-rate segments.
type Constant struct {
	// Rate is the clock rate; it must lie within the owning clock's
	// envelope.
	Rate float64
}

var _ Generator = Constant{}

// NextSegment implements Generator.
func (c Constant) NextSegment(*rand.Rand) (dur, rate float64) {
	return 1 << 20, c.Rate // effectively infinite segments
}

// RandomWalk emits segments with rates drawn uniformly from the drift
// envelope and durations drawn uniformly from [MinDur, MaxDur]. This is the
// "benign but wobbly" oscillator model.
type RandomWalk struct {
	Rho    Rho
	MinDur float64
	MaxDur float64
}

var _ Generator = RandomWalk{}

// NextSegment implements Generator.
func (w RandomWalk) NextSegment(rng *rand.Rand) (dur, rate float64) {
	lo, hi := w.Rho.MinRate(), w.Rho.MaxRate()
	rate = lo + rng.Float64()*(hi-lo)
	dur = w.MinDur + rng.Float64()*(w.MaxDur-w.MinDur)
	if dur <= 0 {
		dur = math.SmallestNonzeroFloat64
	}
	return dur, rate
}
