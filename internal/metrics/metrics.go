// Package metrics turns raw simulation output (clock readings, pulse
// records) into the quantities the experiments report: skew samples on
// the probe bus, per-round acceptance spreads, per-node pulse periods, and
// clock-envelope rates.
package metrics

import (
	"sort"

	"optsync/internal/analysis"
	"optsync/internal/node"
	"optsync/internal/probe"
)

// SkewSampler periodically measures the skew among a fixed node set (or,
// for staggered boots, among whichever correct nodes have booted by each
// tick). Every tick emits a probe.TypeSkewSample event on the cluster
// engine's bus, and the sampler keeps nothing: collectors on the bus
// (probe.SkewStats, probe.Series) own retention.
type SkewSampler struct {
	cluster  *node.Cluster
	ids      []node.ID
	booted   bool
	interval float64
	stopped  bool
	// tick is sample, bound once: every arm schedules the same func value
	// instead of a fresh closure.
	tick func()
}

// NewSkewSampler installs a recurring sampling event on the cluster's
// engine that records the skew over ids every interval, starting one
// interval from now. Sampling continues until Stop (samples are generated
// lazily as the engine runs).
func NewSkewSampler(c *node.Cluster, ids []node.ID, interval float64) *SkewSampler {
	return newSkewSampler(&SkewSampler{cluster: c, ids: ids, interval: interval})
}

// NewBootedSkewSampler records the skew over the correct nodes that have
// booted by each tick — the right measure when StartAt staggers boots: an
// offline node has no meaningful logical clock to compare yet.
func NewBootedSkewSampler(c *node.Cluster, interval float64) *SkewSampler {
	return newSkewSampler(&SkewSampler{cluster: c, booted: true, interval: interval})
}

func newSkewSampler(s *SkewSampler) *SkewSampler {
	s.tick = s.sample
	s.arm()
	return s
}

func (s *SkewSampler) arm() {
	if _, err := s.cluster.Engine.After(s.interval, s.tick); err != nil {
		s.cluster.Engine.Fatalf("metrics: invalid sampling interval %v: %v", s.interval, err)
	}
}

// sample measures one tick and re-arms.
func (s *SkewSampler) sample() {
	if s.stopped {
		return
	}
	ids := s.ids
	if s.booted {
		ids = s.cluster.CorrectIDs()
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

// Stop ends sampling.
func (s *SkewSampler) Stop() { s.stopped = true }

// RoundStat describes one resynchronization round across correct nodes.
type RoundStat struct {
	Round  int
	First  float64 // earliest acceptance (real time)
	Last   float64 // latest acceptance (real time)
	Count  int     // number of nodes that accepted
	Spread float64 // Last - First
}

// PulseReport aggregates a cluster's pulse records.
type PulseReport struct {
	Rounds []RoundStat
	// ByNode maps node -> acceptance real times in round order.
	ByNode map[node.ID][]float64
}

// NewPulseReport groups pulses by round and node. Records from nodes not in
// ids (e.g. faulty nodes that fake pulses) are ignored.
func NewPulseReport(pulses []node.PulseRecord, ids []node.ID) *PulseReport {
	included := make(map[node.ID]bool, len(ids))
	for _, id := range ids {
		included[id] = true
	}
	byRound := make(map[int]*RoundStat)
	rep := &PulseReport{ByNode: make(map[node.ID][]float64)}
	for _, p := range pulses {
		if !included[p.Node] {
			continue
		}
		rs := byRound[p.Round]
		if rs == nil {
			rs = &RoundStat{Round: p.Round, First: p.Real, Last: p.Real}
			byRound[p.Round] = rs
		}
		if p.Real < rs.First {
			rs.First = p.Real
		}
		if p.Real > rs.Last {
			rs.Last = p.Real
		}
		rs.Count++
		rep.ByNode[p.Node] = append(rep.ByNode[p.Node], p.Real)
	}
	for _, rs := range byRound {
		rs.Spread = rs.Last - rs.First
		rep.Rounds = append(rep.Rounds, *rs)
	}
	sort.Slice(rep.Rounds, func(i, j int) bool { return rep.Rounds[i].Round < rep.Rounds[j].Round })
	return rep
}

// MaxSpread returns the maximum acceptance spread over complete rounds
// (rounds in which want nodes accepted); incomplete trailing rounds are
// excluded because their spread is not yet final.
func (r *PulseReport) MaxSpread(want int) float64 {
	max := 0.0
	for _, rs := range r.Rounds {
		if rs.Count == want && rs.Spread > max {
			max = rs.Spread
		}
	}
	return max
}

// CompleteRounds counts rounds accepted by exactly want nodes.
func (r *PulseReport) CompleteRounds(want int) int {
	n := 0
	for _, rs := range r.Rounds {
		if rs.Count == want {
			n++
		}
	}
	return n
}

// Periods returns all per-node gaps between consecutive pulses, in
// ascending node order (map iteration order must not reach the returned
// slice: downstream consumers may be order-sensitive).
func (r *PulseReport) Periods() []float64 {
	ids := make([]node.ID, 0, len(r.ByNode))
	for id := range r.ByNode {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	var out []float64
	for _, id := range ids {
		sorted := append([]float64(nil), r.ByNode[id]...)
		sort.Float64s(sorted)
		for i := 1; i < len(sorted); i++ {
			out = append(out, sorted[i]-sorted[i-1])
		}
	}
	return out
}

// EnvelopeRates fits, per node, the logical clock value adopted at each
// pulse against the real acceptance time, and returns the minimum and
// maximum slope across nodes. For an algorithm with optimal accuracy these
// slopes lie within the hardware envelope [1/(1+rho), 1+rho] (plus the
// analytic slack); for sub-optimal algorithms under attack they escape it.
func EnvelopeRates(pulses []node.PulseRecord, ids []node.ID) (lo, hi float64, err error) {
	included := make(map[node.ID]bool, len(ids))
	for _, id := range ids {
		included[id] = true
	}
	xs := make(map[node.ID][]float64)
	ys := make(map[node.ID][]float64)
	for _, p := range pulses {
		if !included[p.Node] {
			continue
		}
		xs[p.Node] = append(xs[p.Node], p.Real)
		ys[p.Node] = append(ys[p.Node], p.Logical)
	}
	first := true
	for id := range xs {
		fit, ferr := analysis.LinearFit(xs[id], ys[id])
		if ferr != nil {
			return 0, 0, ferr
		}
		if first {
			lo, hi = fit.Slope, fit.Slope
			first = false
			continue
		}
		if fit.Slope < lo {
			lo = fit.Slope
		}
		if fit.Slope > hi {
			hi = fit.Slope
		}
	}
	if first {
		return 0, 0, errNoData
	}
	return lo, hi, nil
}

type noDataError struct{}

func (noDataError) Error() string { return "metrics: no pulse data for envelope fit" }

var errNoData = noDataError{}
