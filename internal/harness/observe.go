package harness

import (
	"optsync/internal/analysis"
	"optsync/internal/node"
	"optsync/internal/probe"
)

// skewSampler periodically measures the skew among a fixed node set, or
// with ids nil among whichever correct nodes have booted by each tick (the
// right measure when StartAt staggers boots: an offline node has no
// meaningful logical clock to compare yet). Every tick emits a
// probe.TypeSkewSample event on the cluster engine's bus, and the sampler
// keeps nothing: collectors on the bus own retention.
type skewSampler struct {
	cluster  *node.Cluster
	ids      []node.ID
	interval float64
	stopped  bool
	// booted is, with ids nil, the correct nodes booted by the last tick:
	// one slice, refilled in place every tick.
	booted []node.ID
	// tick is sample, bound once: every arm schedules the same func value
	// instead of a fresh closure.
	tick func()
}

// newSkewSampler installs a recurring sampling event on the cluster's
// engine that records the skew every interval, starting one interval from
// now. Sampling continues until stop (samples are generated lazily as the
// engine runs).
func newSkewSampler(c *node.Cluster, ids []node.ID, interval float64) *skewSampler {
	s := &skewSampler{cluster: c, ids: ids, interval: interval}
	s.tick = s.sample
	s.arm()
	return s
}

func (s *skewSampler) arm() {
	if _, err := s.cluster.Engine.After(s.interval, s.tick); err != nil {
		s.cluster.Engine.Fatalf("harness: invalid sampling interval %v: %v", s.interval, err)
	}
}

// sample measures one tick and re-arms.
func (s *skewSampler) sample() {
	if s.stopped {
		return
	}
	ids := s.ids
	if ids == nil {
		s.booted = s.booted[:0]
		for _, nd := range s.cluster.Nodes {
			if !nd.Faulty() && nd.Started() {
				s.booted = append(s.booted, nd.ID())
			}
		}
		ids = s.booted
	}
	now := s.cluster.Engine.Now()
	skew := s.cluster.Skew(ids)
	if bus := s.cluster.Engine.Probes(); bus.Active(probe.TypeSkewSample) {
		bus.Emit(probe.Event{
			Type: probe.TypeSkewSample, From: -1, To: -1,
			Round: int32(len(ids)), T: now, Value: skew,
		})
	}
	s.arm()
}

// stop ends sampling.
func (s *skewSampler) stop() { s.stopped = true }

// pulseFold folds TypePulse events into the Result's pulse figures. It
// counts every pulse; the other figures are over the correct ids
// [0, correct) only, because faulty nodes can pulse too. It is a plain
// probe, so a lake replays every type into it in stream order: events of
// other types are ignored.
type pulseFold struct {
	count  int
	spread *probe.SpreadStats
	// gaps counts the per-node gaps between consecutive pulses; stream
	// order is time order, so these are the node's sorted gaps.
	gaps           int
	minGap, maxGap float64
	// xs and ys are each correct node's acceptance instants and adopted
	// logical values, in stream order: the envelope fit's inputs.
	xs, ys [][]float64
}

func newPulseFold(correct int) *pulseFold {
	return &pulseFold{
		spread: probe.NewSpreadStats(),
		xs:     make([][]float64, correct),
		ys:     make([][]float64, correct),
	}
}

// OnEvent implements probe.Probe.
func (f *pulseFold) OnEvent(ev probe.Event) {
	if ev.Type != probe.TypePulse {
		return
	}
	f.count++
	id := int(ev.From)
	if id < 0 || id >= len(f.xs) {
		return
	}
	f.spread.OnEvent(ev)
	if xs := f.xs[id]; len(xs) > 0 {
		gap := ev.T - xs[len(xs)-1]
		if f.gaps == 0 || gap < f.minGap {
			f.minGap = gap
		}
		if f.gaps == 0 || gap > f.maxGap {
			f.maxGap = gap
		}
		f.gaps++
	}
	f.xs[id] = append(f.xs[id], ev.T)
	f.ys[id] = append(f.ys[id], ev.Value)
}

// envelope fits, per correct node that pulsed, the logical value adopted
// at each pulse against the real acceptance instant, and returns the
// minimum and maximum slope. ok is false with no node to fit, or when any
// node's fit fails (a single pulse).
func (f *pulseFold) envelope() (lo, hi float64, ok bool) {
	for id, xs := range f.xs {
		if len(xs) == 0 {
			continue
		}
		fit, err := analysis.LinearFit(xs, f.ys[id])
		if err != nil {
			return 0, 0, false
		}
		if !ok {
			lo, hi, ok = fit.Slope, fit.Slope, true
		}
		lo, hi = min(lo, fit.Slope), max(hi, fit.Slope)
	}
	return lo, hi, ok
}
