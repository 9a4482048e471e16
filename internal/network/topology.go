package network

import (
	"fmt"
	"math/rand"

	"optsync/internal/sim"
)

// Topology decides which directed links exist at any virtual instant. The
// network consults it on every transmission: a send over a link that is
// down (or absent) is dropped at the sender and counted in
// Stats.DroppedLink, and Broadcast only pays for the links that exist.
//
// Topologies must be deterministic functions of (from, to, now) so that
// simulations stay reproducible. A topology that also shapes latency
// (WAN regions) additionally implements DelayShaper.
type Topology interface {
	// Linked reports whether the from->to link carries traffic at now.
	Linked(from, to NodeID, now sim.Time) bool
	// String names the topology for tables and traces.
	String() string
}

// DelayShaper is an optional Topology refinement: topologies with
// link-dependent latency implement it, and the network applies Shape to
// every delay the base Policy produces (base >= 0; returning a negative
// value drops the message).
type DelayShaper interface {
	Shape(from, to NodeID, now sim.Time, base float64, rng *rand.Rand) float64
}

// NeighborLister is an optional Topology refinement for sparse static
// topologies that can enumerate a node's linked set directly: Broadcast
// then visits degree+1 recipients instead of probing Linked across all n,
// which is what makes the 65536-node sparse tiers tractable. The listed
// set must equal {to : Linked(from, to, now)} at every instant (so only
// time-invariant topologies qualify — a Partitioned wrapper deliberately
// does not implement it), must include from itself, and must be in
// ascending id order: broadcast delivery order, traffic stats, and probe
// traces must be byte-identical whichever path the network takes.
type NeighborLister interface {
	// AppendNeighbors appends the linked set of from (including from) to
	// buf in ascending id order and returns the extended slice.
	AppendNeighbors(from NodeID, buf []NodeID) []NodeID
}

// FullMesh is the model's default connectivity: every pair of processes
// is joined by a reliable channel. It is the identity topology — results
// under FullMesh are byte-identical to a network with no topology at all.
type FullMesh struct{}

var _ Topology = FullMesh{}

// Linked implements Topology.
func (FullMesh) Linked(_, _ NodeID, _ sim.Time) bool { return true }

// String implements Topology.
func (FullMesh) String() string { return "mesh" }

// WANRegions arranges n nodes into R contiguous regions on a ring of
// cliques: links inside a region behave like the base policy, links
// between ring-adjacent regions exist but cost extra latency, and links
// between non-adjacent regions do not exist — traffic crosses the WAN
// only through the protocols' own relay steps. This is the standard
// "datacenters on a backbone" shape: it preserves the paper's liveness
// (every region hears every round within a few hops) while stretching
// acceptance spread by the per-hop envelope, which the W-series
// experiments measure against region count.
type WANRegions struct {
	// N is the cluster size; Regions the number of cliques (>= 1).
	N, Regions int
	// HopDelay is the deterministic extra latency of an inter-region link.
	HopDelay float64
	// HopJitter widens the inter-region latency to
	// [HopDelay, HopDelay+HopJitter] per message (drawn from the
	// simulation rng) — the region's "delay envelope".
	HopJitter float64
}

var _ Topology = WANRegions{}
var _ DelayShaper = WANRegions{}

// NewWANRegions builds the ring-of-cliques with a default hop envelope
// of [hopDelay, 2*hopDelay].
func NewWANRegions(n, regions int, hopDelay float64) WANRegions {
	if regions < 1 {
		regions = 1
	}
	if regions > n {
		regions = n
	}
	return WANRegions{N: n, Regions: regions, HopDelay: hopDelay, HopJitter: hopDelay}
}

// Region returns the region of node id (contiguous blocks).
func (w WANRegions) Region(id NodeID) int {
	if w.Regions <= 1 {
		return 0
	}
	return id * w.Regions / w.N
}

// Linked implements Topology: same region, or ring-adjacent regions.
func (w WANRegions) Linked(from, to NodeID, _ sim.Time) bool {
	rf, rt := w.Region(from), w.Region(to)
	if rf == rt {
		return true
	}
	d := rf - rt
	if d < 0 {
		d = -d
	}
	return d == 1 || d == w.Regions-1
}

// Shape implements DelayShaper: inter-region links pay the hop envelope.
func (w WANRegions) Shape(from, to NodeID, _ sim.Time, base float64, rng *rand.Rand) float64 {
	if w.Region(from) == w.Region(to) {
		return base
	}
	extra := w.HopDelay
	if w.HopJitter > 0 {
		extra += rng.Float64() * w.HopJitter
	}
	return base + extra
}

// String implements Topology.
func (w WANRegions) String() string { return fmt.Sprintf("wan:%d", w.Regions) }

// Circulant is the circulant graph C_n(1..Half): node i is linked to
// i±1, ..., i±Half (mod n). Circulants are the canonical fixed-degree
// family for measuring how synchronization degrades as the graph thins:
// diameter grows like n/degree while every node keeps an identical local
// view. Adjacency is pure ring arithmetic — no n² matrix — so the family
// scales to the n=65536 tier, and AppendNeighbors lets Broadcast visit
// degree+1 recipients instead of scanning all n.
type Circulant struct {
	n, half int
}

var _ Topology = (*Circulant)(nil)
var _ NeighborLister = (*Circulant)(nil)

// NewCirculant builds the circulant graph C_n(1..degree/2). The degree
// must be even and within [2, n-1] — silently rounding would mislabel
// experiment results, so invalid degrees panic (harness builders validate
// first and return errors).
func NewCirculant(n, degree int) *Circulant {
	if degree < 2 || degree%2 != 0 || degree >= n {
		panic(fmt.Sprintf("network: circulant degree %d invalid for n=%d (need even, in [2,%d])", degree, n, n-1))
	}
	return &Circulant{n: n, half: degree / 2}
}

// Linked implements Topology: ring distance at most degree/2.
func (c *Circulant) Linked(from, to NodeID, _ sim.Time) bool {
	d := from - to
	if d < 0 {
		d = -d
	}
	return d <= c.half || c.n-d <= c.half
}

// Degree returns the number of neighbours of any node (excluding itself).
func (c *Circulant) Degree(NodeID) int { return 2 * c.half }

// AppendNeighbors implements NeighborLister.
func (c *Circulant) AppendNeighbors(from NodeID, buf []NodeID) []NodeID {
	// The linked set is {from-half .. from+half} mod n (including from),
	// three already-sorted sub-ranges in ascending id order: offsets that
	// wrap past n-1 land on low ids, the unwrapped middle run keeps its
	// ids, and offsets that wrap below 0 land on high ids.
	lo, hi := from-c.half, from+c.half
	for j := c.n; j <= hi; j++ { // wrapped past the high end: ids 0..hi-n
		buf = append(buf, j-c.n)
	}
	start, end := lo, hi
	if start < 0 {
		start = 0
	}
	if end > c.n-1 {
		end = c.n - 1
	}
	for j := start; j <= end; j++ {
		buf = append(buf, j)
	}
	for j := lo; j < 0; j++ { // wrapped below zero: ids n+lo..n-1
		buf = append(buf, j+c.n)
	}
	return buf
}

// String implements Topology.
func (c *Circulant) String() string { return fmt.Sprintf("ring:%d", 2*c.half) }

// PartitionWindow is one scheduled cut: from At until Heal, links whose
// endpoints fall on different sides are down. Heal <= At means the cut
// never heals within the run.
type PartitionWindow struct {
	At, Heal float64
	// Left marks the members of the left side; everyone else is right.
	Left []bool
}

// active reports whether the cut is in force at now.
func (w PartitionWindow) active(now sim.Time) bool {
	return now >= w.At && (w.Heal <= w.At || now < w.Heal)
}

// cut reports whether the from->to link crosses the cut.
func (w PartitionWindow) cut(from, to NodeID) bool {
	return w.side(from) != w.side(to)
}

func (w PartitionWindow) side(id NodeID) bool {
	return id < len(w.Left) && w.Left[id]
}

// Partitioned layers scheduled partition/heal churn over a base topology:
// a link exists iff the base provides it and no active window cuts it.
// Windows are plain data consulted at send time, so churn costs nothing
// in the event queue and composes with any base topology.
type Partitioned struct {
	Base    Topology
	Windows []PartitionWindow
}

var _ Topology = (*Partitioned)(nil)

// Linked implements Topology.
func (p *Partitioned) Linked(from, to NodeID, now sim.Time) bool {
	if !p.Base.Linked(from, to, now) {
		return false
	}
	for _, w := range p.Windows {
		if w.active(now) && w.cut(from, to) {
			return false
		}
	}
	return true
}

// Shape implements DelayShaper by delegating to the base topology.
func (p *Partitioned) Shape(from, to NodeID, now sim.Time, base float64, rng *rand.Rand) float64 {
	if s, ok := p.Base.(DelayShaper); ok {
		return s.Shape(from, to, now, base, rng)
	}
	return base
}

// String implements Topology.
func (p *Partitioned) String() string {
	return fmt.Sprintf("%s+%d-partitions", p.Base, len(p.Windows))
}
